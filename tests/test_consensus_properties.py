"""Generated inboxes: ``absorb``'s extremes match the checkpoint-period filter.

``absorb`` merges the extremes of every envelope sent at or after the
period's first step. A node at checkpoint index theta only ever holds
envelopes sent in the previous period or the current one, before step
theta * L, and over those that test must pick exactly the envelopes that
``sent // L == theta - 1`` picks.
"""

import math

import pytest

from lisnet.termination import CheckpointSchedule, NodeMachine, absorb
from reference import Envelope, period_extremes_scan

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DETERMINISTIC = hypothesis.settings(derandomize=True, deadline=None, database=None)
extremes = st.floats(-1e6, 1e6)


@st.composite
def inboxes(draw):
    period_len = draw(st.integers(1, 20))
    theta = draw(st.integers(1, 12))
    first = max(0, (theta - 2) * period_len)
    sent = st.integers(first, theta * period_len - 1)
    inbox = draw(
        st.lists(
            st.builds(Envelope, st.just(2), st.just(1), sent, st.just(0.5), st.just(0.5),
                      extremes, extremes),
            max_size=8,
        )
    )
    z = draw(extremes | st.just(-math.inf))
    y = draw(extremes | st.just(math.inf))
    return period_len, theta, inbox, z, y


@DETERMINISTIC
@hypothesis.given(inboxes())
def test_absorb_extremes_match_the_period_filter(case):
    period_len, theta, inbox, z, y = case
    state = NodeMachine(1, 1.0, 1.0, 1.0, (), CheckpointSchedule(1, 0))
    state.k = theta * period_len - 1
    since = (theta - 1) * period_len
    assert absorb(state, inbox, 0.5, since, z, y) == period_extremes_scan(
        inbox, period_len, theta, z, y
    )
