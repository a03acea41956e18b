"""Loader fuzz: a mutated record of any schema loads or raises InstanceError.

Valid records of all five schemas are drawn by the seeded generators and
dumped by their `*_to_dict` functions.  Every sub-value of each record (a
dict value or a list element, at any depth) is replaced in turn by each junk
value, and the loader must either return an instance or raise
`InstanceError`.  Any other exception, or a load that runs past its deadline,
fails the test.
"""

import copy
import signal
from contextlib import contextmanager

import pytest

from champbribe import generators
from champbribe.core import instance_from_dict, instance_to_dict
from champbribe.cup import cup_from_dict, cup_to_dict
from champbribe.errors import InstanceError
from champbribe.knapsack import (
    ksum_from_dict,
    ksum_to_dict,
    mpk_from_dict,
    mpk_to_dict,
    pkp_from_dict,
    pkp_to_dict,
)

JUNK = (None, "x", -1, 1.5, [], {}, True, "1/0", 10**30, "")
DEADLINE_S = 2.0

SCHEMAS = {
    "cbcct": (
        lambda i: instance_to_dict(generators.gen_cbcct(21, 1 + i % 3, 3, 5 * i, index=i)),
        instance_from_dict,
    ),
    "cup": (lambda i: cup_to_dict(generators.gen_cup(22, 1 + i % 2, index=i)), cup_from_dict),
    "pkp": (lambda i: pkp_to_dict(generators.gen_pkp(23, 1 + i % 3, index=i)), pkp_from_dict),
    "mpk": (
        lambda i: mpk_to_dict(generators.gen_mpk(24, [1 + i % 2, 2], index=i)),
        mpk_from_dict,
    ),
    "ksum": (lambda i: ksum_to_dict(generators.gen_ksum(25, 2 + i % 3, 2, index=i)), ksum_from_dict),
}


def _paths(value, prefix=()):
    """Every position of a sub-value, as a tuple of keys and indices."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(record, path, junk):
    out = copy.deepcopy(record)
    owner = out
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = copy.deepcopy(junk)
    return out


@contextmanager
def _deadline(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"load ran over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_mutated_records_load_or_raise_instance_error(schema):
    draw, load = SCHEMAS[schema]
    faults = {}
    mutants = 0
    for i in range(3):
        record = draw(i)
        load(record)  # the unmutated record is valid
        for path in _paths(record):
            for junk in JUNK:
                mutants += 1
                try:
                    with _deadline(DEADLINE_S):
                        load(_replaced(record, path, junk))
                except InstanceError:
                    pass
                except Exception as exc:  # any other type is a loader fault
                    key = (path[-1] if isinstance(path[-1], str) else "[i]", repr(junk))
                    faults.setdefault(key, f"{type(exc).__name__}: {exc}")
    assert mutants > 50
    assert not faults, f"{schema}: " + "; ".join(f"{k} -> {v}" for k, v in faults.items())


# A one-player cup: the one bracket where `"players": true` (equal to 1) fits
# the seeding, so only the type rule can refuse it.
EXTRA_RECORDS = {"cup": [cup_to_dict(generators.gen_cup(22, 0))]}


def _at(record, path):
    for key in path:
        record = record[key]
    return record


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_int_and_flag_fields_refuse_other_types(schema):
    """An int field refuses a bool and a float; a bool field refuses every non-bool."""
    draw, load = SCHEMAS[schema]
    accepted = set()
    checked = 0
    for record in [draw(i) for i in range(3)] + EXTRA_RECORDS.get(schema, []):
        load(record)  # the unmutated record is valid
        for path in _paths(record):
            value = _at(record, path)
            if type(value) is int:
                junks = (True, 1.5)
            elif type(value) is bool:
                junks = tuple(j for j in JUNK if type(j) is not bool)
            else:
                continue
            for junk in junks:
                checked += 1
                try:
                    with _deadline(DEADLINE_S):
                        load(_replaced(record, path, junk))
                except InstanceError:
                    continue
                name = next(key for key in reversed(path) if isinstance(key, str))
                accepted.add(f"{name}{'' if path[-1] == name else '[i]'} = {junk!r}")
    assert checked > 10
    assert not accepted, f"{schema} accepted: " + ", ".join(sorted(accepted))
