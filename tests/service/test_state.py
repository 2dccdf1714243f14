"""DurableSessionStore: splice, histogram, commits, destructive close."""

import random

import numpy as np
import pytest

from repro.errors import BadRequestError, SessionError
from repro.service import ServiceConfig
from repro.service.loadgen import WORKLOADS
from repro.service.state import (
    DurableSessionStore,
    insert_observation,
    value_histogram,
)

from .object_reference import fingerprint, replay_object_session

PROGRAM = "x = gauss(0.0, 2.0);\nreturn x;"
NUM_PARTICLES = 20


@pytest.fixture
def store(tmp_path):
    return DurableSessionStore(
        ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
    )


class TestInsertObservation:
    def test_splices_before_last_return(self):
        edited = insert_observation(PROGRAM, "observe(gauss(x, 1.0) == 0.5);")
        lines = [line for line in edited.splitlines() if line]
        assert lines[-1].startswith("return")
        assert "observe" in lines[-2]

    def test_appends_when_no_return(self):
        edited = insert_observation("x = flip(0.5);", "observe(x == true)")
        assert edited.rstrip().endswith("observe(x == true);")

    def test_adds_missing_semicolon(self):
        edited = insert_observation(PROGRAM, "observe(gauss(x, 1.0) == 0.5)")
        assert "== 0.5);" in edited

    def test_empty_statement_is_bad_request(self):
        with pytest.raises(BadRequestError, match="non-empty"):
            insert_observation(PROGRAM, "   ")

    def test_targets_last_return(self):
        source = "x = flip(0.5);\nif (x) { return 1; } else { return 0; }"
        edited = insert_observation(source, "observe(x == true);")
        # Spliced before the *last* return keyword, not the first.
        assert edited.index("observe") > edited.index("return")


class TestValueHistogram:
    def test_masses_sum_to_one_and_rank(self, store):
        result = store.create_session(
            "h", "s1", PROGRAM, env=None, num_particles=NUM_PARTICLES, seed=3
        )
        collection = store.manager.get("s1").collection
        histogram = value_histogram(collection, top=5)
        assert len(histogram) <= 5
        masses = [entry["probability"] for entry in histogram]
        assert masses == sorted(masses, reverse=True)
        assert result["num_particles"] == NUM_PARTICLES


class TestLifecycle:
    def test_create_edit_observe_posterior(self, store):
        store.create_session(
            "alice", "s1", PROGRAM, env=None, num_particles=None, seed=1
        )
        assert store.meta("s1")["program"] == PROGRAM
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.5);")
        assert "observe" in store.meta("s1")["program"]
        posterior = store.posterior("s1", top=4)
        assert posterior["num_edits"] == 1
        assert posterior["values"]

    def test_create_duplicate_session_rejected(self, store):
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        with pytest.raises(SessionError):
            store.create_session(
                "a", "s1", PROGRAM, env=None, num_particles=None, seed=1
            )

    def test_unparseable_program_is_bad_request(self, store):
        with pytest.raises(BadRequestError, match="parse"):
            store.create_session(
                "s1", "a", "this ! is not ( a program", env=None,
                num_particles=None, seed=1,
            )
        # Nothing half-created survives the rejection.
        with pytest.raises(SessionError):
            store.meta("s1")

    def test_owns_enforces_tenant_isolation(self, store):
        store.create_session("alice", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.owns("alice", "s1")
        with pytest.raises(BadRequestError, match="another tenant"):
            store.owns("mallory", "s1")

    def test_sessions_of(self, store):
        store.create_session("alice", "a1", PROGRAM, env=None, num_particles=None, seed=1)
        store.create_session("bob", "b1", PROGRAM, env=None, num_particles=None, seed=2)
        assert store.sessions_of("alice") == ["a1"]
        assert sorted(store.session_ids()) == ["a1", "b1"]


class TestDurability:
    def test_recover_round_trips_collections(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("alice", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 0.5);")
        before = store.manager.get("s1").snapshot()

        fresh = DurableSessionStore(config)
        assert fresh.recover() == ["s1"]
        after = fresh.manager.get("s1").snapshot()
        from repro.store.codec import dumps

        assert dumps(before) == dumps(after)
        assert fresh.meta("s1")["tenant"] == "alice"

    def test_recover_session_whose_steps_ran_columnar(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session(
            "alice", "s1", PROGRAM, env=None, num_particles=None, seed=4
        )
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 0.5);")
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 0.9);")
        live = store.manager.get("s1").collection
        assert type(live).__name__ == "ColumnarCollection"
        before = store.posterior("s1", top=6)

        fresh = DurableSessionStore(config)
        assert fresh.recover() == ["s1"]
        assert fresh.posterior("s1", top=6) == before
        # The recovered session continues exactly as the live one does.
        edit = "observe(gauss(x, 1.0) == 1.3);"
        store.apply_observation("s1", edit)
        fresh.apply_observation("s1", edit)
        assert fingerprint(fresh.manager.get("s1").collection) == fingerprint(
            store.manager.get("s1").collection
        )

    def test_disk_bytes_positive_with_store(self, store):
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        assert store.disk_bytes("s1") > 0

    def test_close_is_destructive(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        result = store.close_session("s1")
        assert result["session"] == "s1"
        assert result["tenant"] == "a"
        # A fresh process finds nothing to resurrect.
        fresh = DurableSessionStore(config)
        assert fresh.recover() == []
        with pytest.raises(SessionError):
            store.posterior("s1")

    def test_posterior_degraded_reads_last_commit(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.0);")
        degraded = store.posterior_degraded("s1", top=4)
        assert degraded["degraded"] is True
        assert degraded["num_edits"] == 1
        live = store.posterior("s1", top=4)
        assert degraded["values"] == live["values"]

    def test_in_memory_store_has_no_disk(self):
        store = DurableSessionStore(ServiceConfig(num_particles=NUM_PARTICLES))
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        assert store.disk_bytes("s1") == 0
        assert store.recover() == []


class TestColumnarServiceEquivalence:
    """Served steps run columnar and commit exactly what object mode
    would: the same particles, weights, log probs and return values."""

    OPS = [
        ("observe", "observe(gauss(x, 1.0) == 0.7);"),
        ("edit", "x = gauss(0.5, 2.0);\nobserve(gauss(x, 1.0) == 0.7);\nreturn x;"),
    ]

    def _run(self, tmp_path, ops, program=PROGRAM, seed=5):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", program, env=None, num_particles=None, seed=seed)
        for op, payload in ops:
            if op == "observe":
                store.apply_observation("s1", payload)
            else:
                store.apply_edit("s1", payload)
        return store

    def test_columnar_sessions_match_object_sessions(self, tmp_path):
        store = self._run(tmp_path, self.OPS)
        served = store.manager.get("s1").collection
        assert type(served).__name__ == "ColumnarCollection"
        reference = replay_object_session(
            PROGRAM, self.OPS, num_particles=NUM_PARTICLES, seed=5
        )
        assert fingerprint(served) == fingerprint(reference)
        posterior = store.posterior("s1", top=8)
        assert posterior["values"] == value_histogram(reference, top=8)
        assert posterior["ess"] == reference.effective_sample_size()

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_loadgen_workloads_match_object_mode(self, tmp_path, workload):
        program, ops = WORKLOADS[workload](0, 6, random.Random(3))
        store = self._run(tmp_path, ops, program=program, seed=11)
        served = store.manager.get("s1").collection
        assert type(served).__name__ == "ColumnarCollection"
        reference = replay_object_session(
            program, ops, num_particles=NUM_PARTICLES, seed=11
        )
        assert fingerprint(served) == fingerprint(reference)

    def test_session_config_carries_collection_mode(self, tmp_path):
        store = DurableSessionStore(ServiceConfig(store_dir=str(tmp_path)))
        assert store._session_config.collection == "columnar"

    def test_histogram_reads_the_return_column(self, tmp_path):
        program = (
            "z = flip(0.3);\nm = z ? 2.0 : -2.0;\n"
            "observe(gauss(m, 1.0) == 0.4);\nreturn z;"
        )
        store = self._run(
            tmp_path, [("observe", "observe(gauss(m, 1.0) == 1.1);")], program=program
        )
        served = store.manager.get("s1").collection
        assert isinstance(served.return_value, np.ndarray)
        histogram = value_histogram(served, top=4)
        assert histogram == value_histogram(served.to_weighted(), top=4)
        assert sorted(entry["value"] for entry in histogram) == [0, 1]
        assert all(type(entry["value"]) is int for entry in histogram)


class TestLazySessionLifecycle:
    def _store(self, tmp_path):
        config = ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 1.0);")
        return config, store

    def test_recover_session_pulls_one_session(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        assert fresh.recover_session("s1") is True
        assert fresh.posterior("s1")["num_edits"] == 1
        assert fresh.recover_session("missing") is False

    def test_recover_session_refreshes_a_stale_live_copy(self, tmp_path):
        config, store = self._store(tmp_path)
        # A second store (another shard) advances the durable state.
        other = DurableSessionStore(config)
        other.recover_session("s1")
        other.apply_observation("s1", "observe(gauss(x, 1.0) == 2.0);")
        # Re-recovering in the first store replaces, never merges.
        assert store.recover_session("s1") is True
        assert store.posterior("s1")["num_edits"] == 2

    def test_release_session_drops_live_copy_only(self, tmp_path):
        config, store = self._store(tmp_path)
        assert store.release_session("s1") is True
        assert store.release_session("s1") is False
        fresh = DurableSessionStore(config)
        assert fresh.recover_session("s1") is True
        assert fresh.posterior("s1")["num_edits"] == 1

    def test_scan_meta_indexes_without_adopting(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        assert fresh.scan_meta() == ["s1"]
        assert fresh.meta("s1")["tenant"] == "a"
        # Nothing went live — no replay happened yet.
        assert fresh.manager.live_sessions() == []

    def test_create_over_durable_history_rejected(self, tmp_path):
        config, _ = self._store(tmp_path)
        fresh = DurableSessionStore(config)
        # The fresh store has no live copy, but the durable history
        # exists; re-creating would truncate acknowledged state.
        with pytest.raises(SessionError, match="already exists"):
            fresh.create_session(
                "a", "s1", PROGRAM, env=None, num_particles=None, seed=1
            )


EDITED = "x = gauss(0.5, 2.0);\nobserve(gauss(x, 1.0) == 1.0);\nreturn x;"


class TestFailedCommit:
    """A checkpoint write that fails leaves the live session as it was."""

    def _store(self, tmp_path, name):
        config = ServiceConfig(
            store_dir=str(tmp_path / name), num_particles=NUM_PARTICLES
        )
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=4)
        return store

    def test_failed_commit_rolls_back_the_edit(self, tmp_path, monkeypatch):
        import errno

        from repro.store import CheckpointManager
        from repro.store.codec import dumps

        store = self._store(tmp_path, "failing")
        session = store.manager.get("s1")
        before = dumps(session.snapshot())

        def no_space(self, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(CheckpointManager, "save", no_space)
            with pytest.raises(OSError):
                store.apply_edit("s1", EDITED)

        assert session.num_edits == 0
        assert store.meta("s1")["program"] == PROGRAM
        assert dumps(session.snapshot()) == before
        assert store.posterior_degraded("s1")["num_edits"] == 0

        # The retry lands as edit 1, with the particles and RNG stream of
        # an edit that never failed (history entries carry timings).
        assert store.apply_edit("s1", EDITED)["num_edits"] == 1
        clean = self._store(tmp_path, "clean")
        clean.apply_edit("s1", EDITED)
        retried, expected = session.snapshot(), clean.manager.get("s1").snapshot()
        assert dumps([retried["collection"], retried["rng"]]) == dumps(
            [expected["collection"], expected["rng"]]
        )
        assert len(retried["history"]) == 1
        assert store.posterior_degraded("s1") == clean.posterior_degraded("s1")

    def test_failed_create_commit_leaves_no_session(self, tmp_path, monkeypatch):
        from repro.store import CheckpointManager

        store = DurableSessionStore(
            ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        )

        def no_space(self, *args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(CheckpointManager, "save", no_space)
        with pytest.raises(OSError):
            store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        assert store.session_ids() == []
        assert store.manager.live_sessions() == []


class TestParseOnce:
    def test_each_edit_parses_only_its_new_program(self, tmp_path, monkeypatch):
        import repro.service.state as state

        store = DurableSessionStore(
            ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        )
        parsed = []

        def counting_parse(source):
            parsed.append(source)
            return state.parse_program.__wrapped__(source)

        counting_parse.__wrapped__ = state.parse_program
        monkeypatch.setattr(state, "parse_program", counting_parse)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.apply_edit("s1", EDITED)
        store.apply_observation("s1", "observe(gauss(x, 1.0) == 2.0);")
        assert len(parsed) == 3
        assert parsed[1] == EDITED

    def test_edit_after_reload_parses_the_current_program_again(self, tmp_path):
        config = ServiceConfig(
            store_dir=str(tmp_path), num_particles=NUM_PARTICLES, session_capacity=1
        )
        store = DurableSessionStore(config)
        store.create_session("a", "s1", PROGRAM, env=None, num_particles=None, seed=1)
        store.create_session("a", "s2", PROGRAM, env=None, num_particles=None, seed=2)
        # s1 was evicted by s2's create; its parsed program went with it.
        assert store.manager.live_sessions() == ["s2"]
        assert store.apply_edit("s1", EDITED)["num_edits"] == 1
        assert store.meta("s1")["program"] == EDITED


CONTROL_FLOW = (
    "z = flip({p});\nif z {{ m = 2.0; }} else {{ m = -2.0; }}\n"
    "observe(gauss(m, 1.0) == 0.4);\nreturn z;"
)


def _served_scripts():
    """(program, ops) per script: the three load workloads and a
    program every edit of which spills with ``control-flow``."""
    scripts = {
        name: WORKLOADS[name](0, 4, random.Random(3))
        for name in ("fig8-session", "gauss-chain", "gmm-edits")
    }
    scripts["control-flow"] = (
        CONTROL_FLOW.format(p=0.3),
        [("edit", CONTROL_FLOW.format(p=p)) for p in (0.35, 0.5, 0.2)],
    )
    return scripts


SCRIPTS = _served_scripts()


class TestColumnarFromCreate:
    """A served session is sampled columnar at ``create`` when its
    program allows, drawing per address as the library birth
    (:meth:`ColumnarCollection.importance_sample`) does.  A birth that
    spills samples the object population exactly as before and stores it
    columnar whenever the columns hand every trace back exactly."""

    SEED = 13

    def _config(self, tmp_path):
        return ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)

    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_step0_checkpoint_is_columnar(self, tmp_path, script):
        from repro.core.columnar import ColumnarCollection
        from repro.store import CheckpointManager

        program, _ = SCRIPTS[script]
        store = DurableSessionStore(self._config(tmp_path))
        store.create_session("a", "s1", program, seed=self.SEED)
        assert isinstance(store.manager.get("s1").collection, ColumnarCollection)
        checkpoint = CheckpointManager(tmp_path / "checkpoints" / "s1").load_latest()
        assert checkpoint.step == 0
        assert isinstance(checkpoint.collection, ColumnarCollection)

    @pytest.mark.parametrize("restart", [False, True], ids=["live", "recovered"])
    @pytest.mark.parametrize("script", sorted(SCRIPTS))
    def test_create_recover_edit_matches_object_replay(self, tmp_path, script, restart):
        program, ops = SCRIPTS[script]
        expected = [
            replay_object_session(
                program, ops[:count], num_particles=NUM_PARTICLES, seed=self.SEED
            )
            for count in range(len(ops) + 1)
        ]
        store = DurableSessionStore(self._config(tmp_path))
        store.create_session("a", "s1", program, seed=self.SEED)
        if restart:
            store = DurableSessionStore(self._config(tmp_path))
            assert store.recover() == ["s1"]
        assert fingerprint(store.manager.get("s1").collection) == fingerprint(expected[0])
        posterior = store.posterior("s1", top=8)
        assert posterior["values"] == value_histogram(expected[0], top=8)
        assert posterior["ess"] == expected[0].effective_sample_size()
        for count, (op, payload) in enumerate(ops, 1):
            if op == "observe":
                store.apply_observation("s1", payload)
            else:
                store.apply_edit("s1", payload)
            served = store.manager.get("s1").collection
            assert fingerprint(served) == fingerprint(expected[count]), (op, count)
        if script == "control-flow":
            spills = store.manager.get("s1").metrics_snapshot()
            assert spills["smc.columnar.spills.control-flow"]["value"] == len(ops)

    #: code -> a served program whose population the columns cannot
    #: hold exactly, so it stays object.  The other ``from_weighted``
    #: codes need values or distributions no program of the language
    #: makes (non-trace items, strings, mixed distribution families,
    #: array-parameterized templates, array observations).
    OBJECT_PROGRAMS = {
        "address-structure": (
            "z = flip(0.3);\nif z { y = gauss(0.0, 1.0); }\n"
            "observe(gauss(1.0, 1.0) == 0.4);\nreturn z;"
        ),
        "return-value-list": (
            "x = gauss(0.0, 1.0);\na = array(2, x);\n"
            "observe(gauss(x, 1.0) == 0.4);\nreturn a;"
        ),
        # An int and a float batch into one float column, where the
        # object population returns ``1``, not ``1.0``.
        "return-value-kind": "x = flip(0.5);\ny = x ? 1 : 2.5;\nreturn y;",
        # ``1 == 1.0``: one shared value would hand back ``1`` for both.
        "return-value-shared": "x = flip(0.5);\ny = x ? 1 : 1.0;\nreturn y;",
    }

    @pytest.mark.parametrize("case", sorted(OBJECT_PROGRAMS))
    def test_unrepresentable_population_stays_object_and_is_counted(
        self, tmp_path, case
    ):
        import json

        from repro.core.weighted import WeightedCollection

        program = self.OBJECT_PROGRAMS[case]
        ops = [("observe", "observe(gauss(1.0, 1.0) == 0.9);")]
        expected = [
            replay_object_session(
                program, ops[:count], num_particles=NUM_PARTICLES, seed=self.SEED
            )
            for count in range(len(ops) + 1)
        ]
        reference = json.dumps(
            {
                "session": "s1",
                "num_edits": 0,
                "num_particles": NUM_PARTICLES,
                "ess": expected[0].effective_sample_size(),
                "values": value_histogram(expected[0], top=8),
            }
        )
        store = DurableSessionStore(self._config(tmp_path))
        store.create_session("a", "s1", program, seed=self.SEED)
        assert isinstance(store.manager.get("s1").collection, WeightedCollection)
        counters = {
            name: entry["value"]
            for name, entry in store.manager.metrics_snapshot().items()
            if name.startswith("store.create_spills.")
        }
        code = case if case == "address-structure" else "return-value"
        assert counters == {f"store.create_spills.{code}": 1}
        posterior = store.posterior("s1", top=8)
        assert json.dumps({k: posterior[k] for k in json.loads(reference)}) == reference
        store = DurableSessionStore(self._config(tmp_path))
        assert store.recover() == ["s1"]
        recovered = store.posterior("s1", top=8)
        assert json.dumps(recovered) == json.dumps(posterior)
        store.apply_observation("s1", ops[0][1])
        assert fingerprint(store.manager.get("s1").collection) == fingerprint(
            expected[1]
        )


    #: code -> a served program whose columnar birth spills with it.
    BIRTH_SPILLS = {
        "control-flow": CONTROL_FLOW.format(p=0.3),
        "execution": OBJECT_PROGRAMS["return-value-kind"],
        "return-value": OBJECT_PROGRAMS["return-value-list"],
    }

    @staticmethod
    def _spill_counters(store):
        return {
            name: entry["value"]
            for name, entry in store.manager.metrics_snapshot().items()
            if name.startswith("store.birth_spills.")
        }

    @pytest.mark.parametrize("code", sorted(BIRTH_SPILLS))
    def test_spilled_birth_samples_the_object_population(self, tmp_path, code):
        from repro.core.importance import importance_sampling
        from repro.lang import lang_model, parse_program

        program = self.BIRTH_SPILLS[code]
        store = DurableSessionStore(self._config(tmp_path))
        store.create_session("a", "s1", program, seed=self.SEED)
        assert self._spill_counters(store) == {f"store.birth_spills.{code}": 1}
        rng = np.random.default_rng(self.SEED)
        model = lang_model(parse_program(program), name="e0")
        expected = importance_sampling(model, rng, NUM_PARTICLES).resample(rng)
        served = store.manager.get("s1")
        assert fingerprint(served.collection) == fingerprint(expected)
        assert served.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("script", ["fig8-session", "gauss-chain", "gmm-edits"])
    def test_eligible_birth_is_columnar_and_uncounted(self, tmp_path, script):
        from repro.core.columnar import ColumnarCollection

        program, _ = SCRIPTS[script]
        store = DurableSessionStore(self._config(tmp_path))
        store.create_session("a", "s1", program, seed=self.SEED)
        assert self._spill_counters(store) == {}
        collection = store.manager.get("s1").collection
        assert isinstance(collection, ColumnarCollection)
        assert collection._source_items is None  # born, not converted


class TestAnalyzeOnce:
    def test_each_served_program_is_analyzed_once(self, tmp_path, monkeypatch):
        import repro.analysis.absint.plan as plan

        analyzed = []
        analyze = plan.analyze_model

        def counting_analyze(model):
            analyzed.append(model.name)
            return analyze(model)

        monkeypatch.setattr(plan, "analyze_model", counting_analyze)
        program, ops = SCRIPTS["fig8-session"]
        store = DurableSessionStore(
            ServiceConfig(store_dir=str(tmp_path), num_particles=NUM_PARTICLES)
        )
        store.create_session("a", "s1", program, seed=3)
        for _, payload in ops:
            store.apply_edit("s1", payload)
        assert analyzed == [f"e{k}" for k in range(len(ops) + 1)]
        reference = replay_object_session(
            program, ops, num_particles=NUM_PARTICLES, seed=3
        )
        assert fingerprint(store.manager.get("s1").collection) == fingerprint(reference)
