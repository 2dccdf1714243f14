"""Object-mode replays of served sessions: the reference for the
service's columnar steps.

The service samples a session's population columnar at birth and runs
every step columnar (spilling per step); these helpers start from the
same library birth (:meth:`ColumnarCollection.importance_sample`, or
object importance sampling when it spills, from the same RNG state) and
rerun every step through the library with ``collection="object"`` — the
same program parses, correspondences, particle count and RNG stream as
:class:`repro.service.state.DurableSessionStore` — so tests can require
the served collections to be bitwise those of object mode.
"""

import numpy as np

from repro.core import CorrespondenceTranslator, InferenceConfig, infer
from repro.core.columnar import ColumnarCollection, ColumnarSpill
from repro.core.importance import importance_sampling
from repro.core.weighted import WeightedCollection
from repro.graph import diff_correspondence
from repro.lang import lang_model, parse_program
from repro.service.state import insert_observation


def replay_object_session(program, ops, *, num_particles, seed, env=None):
    """The object-mode collection after ``create`` and ``ops``.

    ``ops`` is a list of ``("edit", new_program)`` or
    ``("observe", statement)`` pairs, applied in order.
    """
    env = dict(env or {})
    rng = np.random.default_rng(seed)
    parsed = parse_program(program)
    model = lang_model(parsed, env=env, name="e0")
    state = rng.bit_generator.state
    try:
        born = ColumnarCollection.importance_sample(model, rng, num_particles)
        collection = born.resample(rng).to_weighted()
    except ColumnarSpill:
        rng.bit_generator.state = state
        collection = importance_sampling(model, rng, num_particles).resample(rng)
    config = InferenceConfig(resample="adaptive", collection="object")
    for op, payload in ops:
        program = insert_observation(program, payload) if op == "observe" else payload
        new_parsed = parse_program(program)
        translator = CorrespondenceTranslator(
            lang_model(parsed, env=env),
            lang_model(new_parsed, env=env),
            diff_correspondence(parsed, new_parsed),
        )
        collection = infer(translator, collection, rng, config=config).collection
        parsed = new_parsed
    return collection


def fingerprint(collection):
    """Bitwise-comparable digest of a collection in either layout:
    log weights, every choice's address, value and log prob, every
    observation's address and log prob, and return values."""
    if not isinstance(collection, WeightedCollection):
        collection = collection.to_weighted()

    def bits(value):
        return value.hex() if isinstance(value, float) else repr(value)

    return [
        (
            float(weight).hex(),
            tuple(
                (r.address, bits(r.value), r.log_prob.hex())
                for r in trace.choices()
            ),
            tuple((r.address, r.log_prob.hex()) for r in trace.observations()),
            bits(trace.return_value),
        )
        for trace, weight in zip(collection.items, collection.log_weights)
    ]
