"""Shared exception types, and the size limits that the guards read.

A limit is read when its guard runs, so a test can lower it with monkeypatch.
"""

MAX_VERTICES = 6  # the K_n alphabet, HK graphs and command-line graphs
MAX_STATES = 10 ** 6  # the enumerated state space of an update system
MAX_PRODUCT = 10 ** 6  # rows of one vertex table in build_universal_dag
MAX_COSETS = 2_000_000  # cosets of one Todd-Coxeter run in enumerate_hk
MAX_ELEMENTS = 10 ** 6  # elements of one Froidure-Pin closure: K_n, dynamics monoids
MAX_CATALOG_VERTICES = 5  # the largest graphs of the sweep; enumerate_dags checks it
MAX_COUNTEREXAMPLES = 20  # counterexamples that verify_theorem keeps


class ResourceGuardError(RuntimeError):
    """A configured size or work limit would be exceeded."""


class HkDisagreementError(RuntimeError):
    """The two independent Hecke-Kiselman enumerations disagree.

    This always indicates an implementation bug in one of the two
    algorithms, never a mathematical event; it must not be silenced.
    """


def check_vertex_count(n: int) -> None:
    """Refuse more than MAX_VERTICES vertices."""
    if n > MAX_VERTICES:
        raise ResourceGuardError(
            f"vertex guard: {n} vertices exceed MAX_VERTICES={MAX_VERTICES}")


def check_state_count(count: int) -> None:
    """Refuse a state space with more than MAX_STATES states."""
    if count > MAX_STATES:
        raise ResourceGuardError(
            f"state space of size {count} exceeds MAX_STATES={MAX_STATES}"
        )
