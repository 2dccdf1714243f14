"""Golden bytes for the store codec.

Checkpoint bytes are compared by the kill→resume and SIGKILL-recovery
gates, so the codec's output must never drift for the same input.  The
hashes below were recorded from the JSON wire format for three fixed-
seed inputs: an object collection of structured-language traces (with
its RNG stream, as a checkpoint stores it), a columnar collection, and a
dependency-graph trace.  A change that alters any of them changes what
is on disk and must bump the schema instead.

Older schemas stay readable: ``fixtures/schema3/<name>.json`` holds the
same three inputs as the schema-3 codec wrote them, and each must
decode to a value that re-encodes to today's bytes.
"""

import hashlib
import pathlib

import numpy as np
import pytest

from repro.core import ColumnarCollection, Model, WeightedCollection
from repro.core.importance import importance_sampling
from repro.distributions import Flip, Gamma, Normal
from repro.graph import run_initial
from repro.lang import lang_model, parse_program
from repro.store import dumps, loads

SCHEMA3_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "schema3"

LANG_SOURCE = """
slope = gauss(0.0, 2.0);
intercept = gauss(0.0, 2.0);
for i in [0 .. 4) {
    o = flip(0.1);
    observe(gauss(slope * i + intercept, o ? 10.0 : 0.5) == 0.6 * i);
}
k = uniform(0, 3);
r = array(2, slope);
r[1] = k;
return r;
"""

GRAPH_SOURCE = """
p = 0.3;
x = flip(p);
a = array(3, 0);
for i in [0 .. 3) {
    a[i] = gauss(x, 1.0);
    observe(flip(x ? 0.8 : 0.2) == 1);
}
return a;
"""


def _regression_fn(h):
    slope = h.sample(Normal(0.0, 2.0), "slope")
    noise = h.sample(Gamma(2.0, 1.0), "noise")
    h.sample(Flip(0.3), "outlier")
    for i in range(5):
        h.observe(Normal(slope * i, noise), 0.6 * i, f"y{i}")
    return slope


def _lang_checkpoint():
    rng = np.random.default_rng(11)
    model = lang_model(parse_program(LANG_SOURCE), name="golden")
    collection = importance_sampling(model, rng, 12)
    collection.metadata = [{"edit": 3, (1, "x"): [0.5, float("-inf")]}] + [None] * 11
    return {"step": 3, "collection": collection, "rng": rng}


def _columnar_collection():
    rng = np.random.default_rng(5)
    model = Model(_regression_fn)
    population = WeightedCollection(
        [model.generate(rng)[0] for _ in range(10)],
        list(np.linspace(-0.5, 0.5, 10)),
    )
    return ColumnarCollection.from_weighted(population)


def _graph_trace():
    return run_initial(parse_program(GRAPH_SOURCE), np.random.default_rng(3))


#: name -> (input builder, sha256 of ``dumps(input)``).
GOLDEN = {
    "lang-checkpoint": (
        _lang_checkpoint,
        "80c6209f793d51c5d02d737726217b5d56e5813c5d51028e31ab6d82f7f9a5ca",
    ),
    "columnar": (
        _columnar_collection,
        "6591c8b732a6decd06df60f068352d266037d3bd2ce3a0d418370855d3cbcecf",
    ),
    "graph-trace": (
        _graph_trace,
        "d99875bf932e0a613c89cd8138e088fb51adebc16b823cd28ef5cb3e1c8ef407",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dumps_bytes_are_unchanged(name):
    build, expected = GOLDEN[name]
    assert hashlib.sha256(dumps(build())).hexdigest() == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_schema3_bytes_decode_to_the_same_value(name):
    build, _ = GOLDEN[name]
    old = (SCHEMA3_FIXTURES / f"{name}.json").read_bytes()
    assert b'"schema":3' in old
    assert dumps(loads(old)) == dumps(build())
