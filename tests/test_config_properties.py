"""Generated scenario documents: each one loads and round-trips, or is rejected.

``ScenarioConfig.from_dict`` must end every document it is given in a
``ScenarioConfig`` or a ``ConfigurationError``, never in another exception,
and a loaded scenario must read back from its own ``to_dict()`` unchanged.
A mutated document that loads must also run: its first two instants each
end in a plan, feasible or not, or in a ``LisnetError`` that is not a
``ConfigurationError``, since a document that loads is not malformed; and
they never run on for hours.
Examples are derived from the test's name, so every run sees the same ones.
"""

import copy
from itertools import islice

import pytest

from lisnet.cli import ScenarioConfig, default_config
from lisnet.errors import ConfigurationError, LisnetError
from lisnet.scenario import day_instants, solve_instant

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DELETE = object()


def full_scenario() -> dict:
    """The default scenario with every optional key set."""
    doc = default_config().to_dict()
    doc["graph"]["delay_bounds"] = {"1-2": 2}
    doc["delay"]["probabilities"] = [0.1, 0.3, 0.3, 0.3]
    doc["dispatch"].update(start_hours=3.0, end_hours=3.1)
    doc["fleet"][0].update(tracking="lag", lag_seconds=10.0)
    doc["output"] = {"directory": "out"}
    return doc


def paths(node, path=()):
    """Every key path into ``node``, the first two entries of each list."""
    children = node.items() if isinstance(node, dict) else enumerate(node[:2])
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, path + (key,))


FULL = full_scenario()
PATHS = list(paths(FULL))
KEYS = sorted({key for path in PATHS for key in path if isinstance(key, str)})
WORDS = st.sampled_from(
    ["res", "non_res", "lag", "instant", "fixed", "stochastic", "1-2", "2->1"]
)

# numbers at the edges of what a field can hold: a zero, the least subnormal,
# counts too large to step through, and the largest float
EXTREMES = st.sampled_from([0, 5e-324, 1e9, 1e16, 2**53 + 1, 1.7e308])

# any value YAML can load, leaning towards the schema's own keys and words
atoms = (
    st.none() | st.booleans() | st.integers() | st.floats() | EXTREMES
    | st.text(max_size=4) | WORDS
)
yaml_values = st.recursive(
    atoms,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | atoms, inner, max_size=4),
    max_leaves=12,
)


def change_at(path):
    """``path`` with a new value of the old one's type, any value, or a deletion."""
    old = FULL
    for key in path:
        old = old[key]
    same_type = {
        int: st.integers() | EXTREMES,
        float: st.floats() | st.integers() | EXTREMES,
        str: WORDS | st.text(max_size=4),
    }.get(type(old), st.nothing())
    return st.tuples(st.just(path), same_type | yaml_values | st.just(DELETE))


mutations = st.lists(st.sampled_from(PATHS).flatmap(change_at), min_size=1, max_size=3)
# the same examples on every run, and no timing-dependent failures
DETERMINISTIC = hypothesis.settings(derandomize=True, deadline=None, database=None)


def loads_and_round_trips_or_is_rejected(doc) -> ScenarioConfig | None:
    try:
        config = ScenarioConfig.from_dict(doc)
    except ConfigurationError:
        return None
    emitted = config.to_dict()
    assert ScenarioConfig.from_dict(emitted).to_dict() == emitted
    return config


@hypothesis.settings(DETERMINISTIC, max_examples=200)
@hypothesis.given(st.dictionaries(st.sampled_from(KEYS) | atoms, yaml_values, max_size=8))
def test_arbitrary_document(doc):
    loads_and_round_trips_or_is_rejected(doc)


@hypothesis.settings(DETERMINISTIC, max_examples=500)
@hypothesis.given(mutations)
@hypothesis.example([(("rho",), 10**400)])  # an integer no float can hold
# a first checkpoint 4,000,000,003 steps in: it loads only if it runs for hours
@hypothesis.example([(("diameter",), 10**9)])
# unit 2's window at hour 3, [1000.0, 1000.0], rounds to no width
@hypothesis.example([(("dispatch", "epsilon"), 5e-324)])
def test_mutated_scenario(changes):
    doc = copy.deepcopy(FULL)
    for path, value in changes:
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change removed or replaced this path
    config = loads_and_round_trips_or_is_rejected(doc)
    if config is None:
        return
    for t_hours, cycle_seed in islice(day_instants(config), 2):
        try:
            solve_instant(config, t_hours, cycle_seed)
        except ConfigurationError as exc:
            pytest.fail(f"a document that loads is rejected at {t_hours} h: {exc}")
        except LisnetError:
            pass


def test_the_full_scenario_loads():
    # the mutations start from a document that loads as it is
    assert ScenarioConfig.from_dict(FULL).to_dict() == FULL
