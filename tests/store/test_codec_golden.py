"""Golden bytes for the store codec.

Checkpoint bytes are compared by the kill→resume and SIGKILL-recovery
gates, so the codec's output must never drift for the same input.  The
hashes below were recorded from the JSON wire format for three fixed-
seed inputs: an object collection of structured-language traces (with
its RNG stream, as a checkpoint stores it), a columnar collection, and a
dependency-graph trace.  A change that alters any of them changes what
is on disk and must bump the schema instead.
"""

import hashlib

import numpy as np
import pytest

from repro.core import ColumnarCollection, Model, WeightedCollection
from repro.core.importance import importance_sampling
from repro.distributions import Flip, Gamma, Normal
from repro.graph import run_initial
from repro.lang import lang_model, parse_program
from repro.store import dumps

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
    collection.metadata = {"edit": 3, (1, "x"): [0.5, float("-inf")]}
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
        "ba7d1ba43986e9b9818c4428006ae3117c1b2d2b37138910aa3bdd0ce24ff043",
    ),
    "columnar": (
        _columnar_collection,
        "df9ec45bf92cfd43df0d6bb864cae6e3b3631a2d13928a9ed6bf36037602acad",
    ),
    "graph-trace": (
        _graph_trace,
        "a0a9872738b28bd9e0f9e1deb234c032c703b3961410c6208ab4f21494f3a2da",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_dumps_bytes_are_unchanged(name):
    build, expected = GOLDEN[name]
    assert hashlib.sha256(dumps(build())).hexdigest() == expected
