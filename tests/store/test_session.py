"""Inference sessions: lifecycle, LRU eviction, reload fidelity, metrics."""

import numpy as np
import pytest

from repro.core import CorrespondenceTranslator
from repro.core.correspondence import Correspondence
from repro.core.importance import importance_sampling
from repro.errors import SessionError
from repro.store import InferenceSession, SessionManager, dumps

NUM_PARTICLES = 25


def make_translator(burglary_original, burglary_refined):
    return CorrespondenceTranslator(
        burglary_original,
        burglary_refined,
        Correspondence.identity(["burglary", "alarm"]),
    )


@pytest.fixture
def initial(burglary_original, rng):
    return importance_sampling(burglary_original, rng, NUM_PARTICLES).resample(rng)


@pytest.fixture
def translator(burglary_original, burglary_refined):
    return make_translator(burglary_original, burglary_refined)


class TestSessionLifecycle:
    def test_create_and_submit(self, initial, translator):
        manager = SessionManager()
        session = manager.create("s1", initial, seed=1)
        assert session.num_edits == 0

        step = session.submit(translator)
        assert session.num_edits == 1
        assert session.collection is step.collection
        assert session.history[0]["edit"] == 0
        assert session.history[0]["num_particles"] == NUM_PARTICLES

    def test_manager_submit_routes_to_session(self, initial, translator):
        manager = SessionManager()
        manager.create("s1", initial, seed=1)
        manager.submit("s1", translator)
        assert manager.get("s1").num_edits == 1

    def test_estimate_delegates_to_collection(self, initial):
        manager = SessionManager()
        session = manager.create("s1", initial, seed=1)
        probability = session.estimate(lambda t: float(t["alarm"]))
        assert 0.0 <= probability <= 1.0

    def test_duplicate_id_rejected(self, initial):
        manager = SessionManager()
        manager.create("s1", initial, seed=1)
        with pytest.raises(SessionError, match="already exists"):
            manager.create("s1", initial, seed=2)

    def test_duplicate_id_rejected_even_when_evicted(self, tmp_path, initial):
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=1)
        manager.evict("s1")
        with pytest.raises(SessionError, match="already exists in the store"):
            manager.create("s1", initial, seed=2)

    @pytest.mark.parametrize("bad_id", ["", "has space", "a/b", ".hidden", None, 7])
    def test_invalid_session_ids(self, initial, bad_id):
        manager = SessionManager()
        with pytest.raises(SessionError, match="invalid session id"):
            manager.create(bad_id, initial, seed=1)

    def test_unknown_session(self, tmp_path):
        with pytest.raises(SessionError, match="unknown session"):
            SessionManager(tmp_path).get("never-created")

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SessionManager(capacity=0)


class TestEvictionAndReload:
    def test_lru_evicts_least_recently_used(self, tmp_path, initial):
        manager = SessionManager(tmp_path, capacity=2)
        manager.create("a", initial, seed=1)
        manager.create("b", initial, seed=2)
        manager.get("a")  # touch: b is now the LRU entry
        manager.create("c", initial, seed=3)
        assert sorted(manager.live_sessions()) == ["a", "c"]
        assert manager.stored_sessions() == ["b"]
        assert (tmp_path / "b.session").is_file()

    def test_no_store_dir_never_evicts(self, initial):
        manager = SessionManager(capacity=1)
        manager.create("a", initial, seed=1)
        manager.create("b", initial, seed=2)
        assert sorted(manager.live_sessions()) == ["a", "b"]
        with pytest.raises(SessionError, match="no store_dir"):
            manager.evict("a")

    def test_evict_requires_live_session(self, tmp_path, initial):
        manager = SessionManager(tmp_path)
        with pytest.raises(SessionError, match="not live"):
            manager.evict("ghost")

    def test_reload_restores_durable_state(self, tmp_path, initial, translator):
        manager = SessionManager(tmp_path)
        session = manager.create("s1", initial, seed=5)
        session.submit(translator)
        history = list(session.history)
        weights = list(session.collection.log_weights)
        manager.evict("s1")
        assert manager.live_sessions() == []

        reloaded = manager.get("s1")
        assert reloaded is not session
        assert reloaded.history == history
        assert reloaded.collection.log_weights == weights

    def test_reloaded_rng_continues_identically(self, tmp_path, initial, translator):
        """Evict-and-reload is invisible: the next edit draws exactly
        what the uninterrupted session would have drawn."""
        live = SessionManager(None).create("s1", initial, seed=5)
        stored_manager = SessionManager(tmp_path)
        stored_manager.create("s1", initial, seed=5)
        stored_manager.evict("s1")

        step_live = live.submit(translator)
        step_reloaded = stored_manager.submit("s1", translator)
        assert dumps(step_reloaded.collection) == dumps(step_live.collection)

    def test_reloaded_session_does_not_alias_snapshot(self, tmp_path, initial, translator):
        """Edits to a reloaded session must not leak into the on-disk
        snapshot until the next evict."""
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=5)
        path = manager.evict("s1")
        before = path.read_bytes()
        manager.submit("s1", translator)
        assert path.read_bytes() == before  # untouched until re-evicted
        manager.evict("s1")
        assert path.read_bytes() != before

    def test_corrupt_session_file(self, tmp_path, initial):
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=1)
        path = manager.evict("s1")
        path.write_bytes(b"not a codec document")
        with pytest.raises(SessionError, match="cannot reload"):
            manager.get("s1")

    def test_close_persists_by_default(self, tmp_path, initial):
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=1)
        path = manager.close("s1")
        assert path is not None and path.is_file()
        assert manager.live_sessions() == []

    def test_close_without_persist(self, tmp_path, initial):
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=1)
        assert manager.close("s1", persist=False) is None
        assert manager.stored_sessions() == []


class TestMetrics:
    def test_manager_counters(self, tmp_path, initial):
        manager = SessionManager(tmp_path, capacity=1)
        manager.create("a", initial, seed=1)
        manager.create("b", initial, seed=2)  # evicts a
        manager.get("a")  # reloads a, evicts b
        snapshot = manager.metrics_snapshot()
        assert snapshot["store.sessions_created"]["value"] == 2
        assert snapshot["store.evictions"]["value"] == 2
        assert snapshot["store.reloads"]["value"] == 1
        assert snapshot["store.bytes_written"]["value"] > 0

    def test_session_counters_and_histograms(self, initial, translator):
        session = SessionManager().create("s1", initial, seed=1)
        session.submit(translator)
        session.submit(translator)
        snapshot = session.metrics_snapshot()
        assert snapshot["session.edits"]["value"] == 2
        assert snapshot["session.particles_translated"]["value"] == 2 * NUM_PARTICLES
        assert snapshot["session.ess_after"]["count"] == 2

    def test_list_sessions(self, tmp_path, initial):
        manager = SessionManager(tmp_path, capacity=1)
        manager.create("a", initial, seed=1)
        manager.create("b", initial, seed=2)
        assert manager.list_sessions() == {"live": ["b"], "stored": ["a"]}


class TestConcurrencyAndRecoveryHooks:
    """Thread-safety contracts the inference service leans on."""

    def test_evict_during_submit_persists_post_edit_state(
        self, tmp_path, initial, translator
    ):
        """Regression: evict racing a long submit must wait for the edit.

        The submit thread holds the session lock; evict's snapshot()
        blocks on it, so the spill file carries the *post-edit* state —
        never a torn mixture of old collection and new history.
        """
        import threading

        from repro.observability import Hooks

        manager = SessionManager(tmp_path)
        session = manager.create("s1", initial, seed=1)
        entered = threading.Event()

        class SlowHooks(Hooks):
            def on_particle(self, index, outcome):
                if index == 0:
                    entered.set()
                import time

                time.sleep(0.002)

        errors = []

        def edit():
            try:
                session.submit(translator, hooks=SlowHooks())
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        thread = threading.Thread(target=edit)
        thread.start()
        assert entered.wait(timeout=10)
        manager.evict("s1")
        thread.join(timeout=30)
        assert not thread.is_alive() and not errors

        reloaded = SessionManager(tmp_path).get("s1")
        assert reloaded.num_edits == 1
        assert reloaded.history[0]["num_particles"] == NUM_PARTICLES

    def test_concurrent_submits_different_sessions(self, tmp_path, rng, translator, burglary_original):
        """Edits on different sessions proceed concurrently and intact."""
        import threading

        manager = SessionManager(tmp_path, capacity=4)
        for index in range(3):
            collection = importance_sampling(
                burglary_original, np.random.default_rng(index), NUM_PARTICLES
            ).resample(np.random.default_rng(index))
            manager.create(f"s{index}", collection, seed=index)

        errors = []

        def edit(session_id):
            try:
                manager.submit(session_id, translator)
            except Exception as error:  # pragma: no cover - the assertion
                errors.append(error)

        threads = [
            threading.Thread(target=edit, args=(f"s{index}",)) for index in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for index in range(3):
            assert manager.get(f"s{index}").num_edits == 1

    def test_submit_rolls_back_on_hook_error(self, initial, translator):
        """A mid-translation failure leaves collection, RNG, and history
        untouched (what makes deadline cancellation corruption-free)."""
        import copy

        from repro.observability import Hooks

        manager = SessionManager()
        session = manager.create("s1", initial, seed=1)
        collection_before = session.collection
        rng_state_before = copy.deepcopy(session.rng.bit_generator.state)

        class Bomb(Hooks):
            def on_particle(self, index, outcome):
                raise RuntimeError("cancelled mid-flight")

        with pytest.raises(RuntimeError, match="cancelled"):
            session.submit(translator, hooks=Bomb())
        assert session.collection is collection_before
        assert session.num_edits == 0
        assert session.rng.bit_generator.state == rng_state_before

        # The session still works after the rollback.
        session.submit(translator)
        assert session.num_edits == 1

    def test_adopt_registers_recovered_session(self, initial):
        manager = SessionManager()
        session = InferenceSession("recovered", initial, np.random.default_rng(2))
        assert manager.adopt(session) is session
        assert manager.get("recovered") is session
        assert manager.metrics_snapshot()["store.sessions_recovered"]["value"] == 1

    def test_adopt_rejects_live_duplicate(self, initial):
        manager = SessionManager()
        manager.create("s1", initial, seed=1)
        with pytest.raises(SessionError, match="already exists"):
            manager.adopt(InferenceSession("s1", initial, np.random.default_rng(2)))

    def test_adopt_supersedes_stored_file(self, tmp_path, initial):
        """Unlike create, adopt may shadow an on-disk spill: recovery
        from commit snapshots legitimately supersedes older LRU spills."""
        manager = SessionManager(tmp_path)
        manager.create("s1", initial, seed=1)
        manager.evict("s1")
        adopted = InferenceSession("s1", initial, np.random.default_rng(2))
        assert manager.adopt(adopted) is adopted
        assert manager.get("s1") is adopted
