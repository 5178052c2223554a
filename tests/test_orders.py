"""Ordering classification tables for the built-in algebras."""

import pytest

from poscones import (
    OrderingInfo,
    classify,
    classify_all,
    orderings,
    x_tilde,
    zoo_algebra,
    zoo_names,
)

# name -> tuple of (class, n_P, nil) per ordering, frozen by hand from the
# local structure: split stays real, quad splits or stays quadratic by the
# sign of d, quaternions stay division or split to 2x matrices by (a, b)
EXPECTED = {
    "split-q-1": (("rcf", 1, False),),
    "split-q-2": (("rcf", 2, False),),
    "split-q-3": (("rcf", 3, False),),
    "split-q-2-indef": (("rcf", 2, False),),
    "quat-q-1": (("quat", 1, False),),
    "quat-q-2": (("quat", 2, False),),
    "quat-rt2-1": (("quat", 1, False), ("rcf", 2, True)),
    "quat-rt2-2": (("quat", 2, False), ("rcf", 4, True)),
    "quad-rt2-1": (("acf", 1, False), ("d-rcf", 1, True)),
    "quad-rt2-2": (("acf", 2, False), ("d-rcf", 2, True)),
}


class TestClassification:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_zoo_table(self, name):
        alg = zoo_algebra(name)
        infos = classify_all(alg)
        assert len(infos) == len(EXPECTED[name])
        for p, (cls, n_p, nil) in enumerate(EXPECTED[name]):
            assert infos[p] == OrderingInfo(p, cls, n_p, nil)

    def test_zoo_is_fully_covered(self):
        assert sorted(zoo_names()) == sorted(EXPECTED)

    def test_x_tilde_keeps_only_non_nil(self):
        for name in zoo_names():
            alg = zoo_algebra(name)
            assert x_tilde(alg) == tuple(
                p for p, (_, _, nil) in enumerate(EXPECTED[name]) if not nil
            )
            assert x_tilde(alg) == (0,)

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            classify(zoo_algebra("split-q-1"), 1)

    def test_orderings_follow_the_field(self):
        assert orderings(zoo_algebra("split-q-2").field) == (0,)
        assert orderings(zoo_algebra("quad-rt2-1").field) == (0, 1)
