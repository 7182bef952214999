"""The generic name registry behind the backend and decoder registries."""

import pytest

from repro.registry import Registry


def make_registry() -> Registry[int]:
    registry: Registry[int] = Registry("widget")
    registry.register("beta", 2, aliases=("b",))
    registry.register("alpha", 1, aliases=("a", "first"))
    return registry


def test_names_are_sorted_canonical_names():
    assert make_registry().names() == ("alpha", "beta")


def test_choices_are_sorted_names_plus_aliases():
    assert make_registry().choices() == ("a", "alpha", "b", "beta", "first")


def test_get_resolves_aliases():
    registry = make_registry()
    assert registry.get("first") == registry.get("alpha") == 1
    assert registry.canonical_name("b") == "beta"


def test_unknown_name_error_lists_every_name_and_alias():
    with pytest.raises(KeyError) as exc:
        make_registry().get("gamma")
    assert exc.value.args[0] == (
        "unknown widget 'gamma' (known: a, alpha, b, beta, first)"
    )


def test_reregistering_a_name_replaces_it():
    registry = make_registry()
    registry.register("alpha", 10, aliases=("a",))
    assert registry.get("a") == 10
    assert registry.names() == ("alpha", "beta")


@pytest.mark.parametrize(
    "name, aliases",
    [
        ("gamma", ("g", "beta")),
        ("gamma", ("g", "b")),
        ("first", ()),
        ("gamma", ("g", "gamma")),
    ],
    ids=["shadows-name", "rebinds-alias", "name-is-alias", "self-alias"],
)
def test_failed_registration_leaves_no_partial_state(name, aliases):
    registry = make_registry()
    with pytest.raises(ValueError):
        registry.register(name, 3, aliases=aliases)
    assert registry.names() == ("alpha", "beta")
    assert registry.choices() == ("a", "alpha", "b", "beta", "first")
