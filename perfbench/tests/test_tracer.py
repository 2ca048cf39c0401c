import sys

import pytest

import tracer
from tracer import Tracer, merged_length, self_times


def test_merged_length_unions_overlaps():
    assert merged_length([]) == 0
    assert merged_length([(0, 2), (1, 3)]) == 3
    assert merged_length([(5, 6), (0, 1), (0.5, 0.75)]) == 2
    assert merged_length([(0, 4), (1, 2)]) == 4


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([("a", 1.0, 3.5, -1)]) == [2.5]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 5.0, 0),
        ("grandchild", 2.0, 4.0, 1),
        ("child", 6.0, 7.0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_overlapping_children_are_counted_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 5.5, 5.8, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0)


def test_children_are_clipped_to_their_parent():
    spans = [("root", 2.0, 6.0, -1), ("early", 0.0, 3.0, 0), ("late", 5.0, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.0)


def test_wrap_records_nesting_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(3) == 8
    assert tr.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]
    summary = tr.summary()
    assert summary["self_s"] == {"outer": 2.0, "inner": 1.0}
    assert summary["incl_s"] == {"outer": 3.0, "inner": 1.0}
    assert summary["calls"] == {"outer": 1, "inner": 1}


def test_wrap_closes_the_span_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap("boom", boom)()
    assert tr.stack == [] and tr.spans[0][2] >= tr.spans[0][1]


@pytest.fixture
def restored_jacobiforge():
    """Undo the tracer's rebinding after the test."""
    import jacobiforge  # noqa: F401
    from jacobiforge.bipoly import BiHomPoly

    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("jacobiforge")]
    saved = [(m, dict(vars(m))) for m in modules]
    methods = (BiHomPoly.polarize, BiHomPoly.render)
    yield saved
    for mod, namespace in saved:
        for attr, value in namespace.items():
            setattr(mod, attr, value)
    BiHomPoly.polarize, BiHomPoly.render = methods


def _clear_caches(modules):
    for mod in modules:
        for value in list(vars(mod).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def _sample_results():
    """One call through most traced entry points, on Hamming [7,4]_2."""
    from jacobiforge import code, designs, enumerators, exactmath, gf, harmonic, transforms, verify
    from jacobiforge.code import RefSet

    text = "q=2 n=7\n1000110\n0100101\n0010011\n0001111\n"
    c = code.parse_code(text)
    t = RefSet.of(7, [1, 2])
    guards = (10 ** 7, 1 << 24)
    tables = [enumerators.higher_jacobi(c, t, r) for r in range(3)]
    ctx = transforms.MWContext(q=2, n=7, k=4, tsize=2)
    shells = designs.support_shells(c, 1)
    return {
        "field": gf.field_new(3, 2).modulus,
        "wenum": enumerators.weight_enum(c).render(),
        "jacobi": enumerators.jacobi(c, t).grid,
        "hjac": [tab.grid for tab in tables],
        "ext": enumerators.extended_jacobi(c, t, 2).grid,
        "ext_direct": enumerators.extended_jacobi_direct(c, t, 2).grid,
        "via_q": enumerators.higher_jacobi_via_q(c, t, 1).grid,
        "ext_via_q": enumerators.extended_jacobi_via_q(c, t, 1).grid,
        "from_ext": enumerators.higher_from_extended(c, t, 2).grid,
        "dims": code.column_set_dim(c, frozenset({1, 2, 3})),
        "mw": transforms.mw_higher_jacobi(tables, ctx).grid,
        "mw_ext": transforms.mw_extended_jacobi(enumerators.extended_jacobi(c, t, 1), ctx).grid,
        "mw_hw": transforms.mw_higher_weight(
            [enumerators.higher_weight_enum(c, r) for r in range(2)],
            transforms.MWContext(q=2, n=7, k=4, tsize=0)).render(),
        "polarize": designs.jacobi_by_polarization(c, 1, 1).render(),
        "shells": {w: len(s) for w, s in shells.items()},
        "design": [designs.is_t_design(s, 2) for s in shells.values()],
        "indep": designs.t_independence_check(c, 1, 1),
        "basis": len(harmonic.harm_basis(7, 1)),
        "delsarte": [harmonic.delsarte_design_check(s, 1) for s in shells.values()],
        "f_tilde": harmonic.f_tilde(harmonic.harm_basis(7, 1)[0], {1, 2, 3}),
        "recover": harmonic.recover_jacobi(c, 1, t).grid,
        "solve": exactmath.rat_solve(exactmath.RatMatrix([[2, 1], [1, 3]]), [1, 2]),
        "items": [verify.run_item(c, kind, params, guards)
                  for _, kind, params in verify.build_items(c, 1, 1, 1, 0)],
    }


def test_tracer_keeps_every_wrapped_name_callable_and_results_unchanged(restored_jacobiforge):
    saved = restored_jacobiforge
    modules = [m for m, _ in saved]
    _clear_caches(modules)
    before = _sample_results()
    tr = Tracer()
    tracer.install(tr)
    _clear_caches(modules)
    after = _sample_results()
    assert after == before
    rebound = [
        (mod, attr, value)
        for mod, namespace in saved
        for attr, value in namespace.items()
        if vars(mod)[attr] is not value
    ]
    assert len(rebound) > 20
    for mod, attr, value in rebound:
        new = vars(mod)[attr]
        assert callable(new), (mod.__name__, attr)
        assert value in (new.__wrapped__, getattr(new.__wrapped__, "__wrapped__", None))
    names = set(tr.summary()["calls"])
    assert {"code.enum", "enumerators.sweep", "transforms.mw", "harmonic.recover",
            "designs.is_t_design", "verify.item.mass", "gf.field_new"} <= names
    assert tr.counts["enumerators.support_cache_misses"] > 0
