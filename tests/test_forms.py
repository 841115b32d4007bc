import pytest

from symcanon import (
    CompactSym,
    FieldSpec,
    UndecomposableError,
    eval_form,
    form_kernel_dimension,
    full_from_compact,
    symmetric_outer_power,
    symmetric_rank_strata,
    tensor_to_form,
    waring_rank_check,
)
from symcanon.tensor import compact_decode

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def sym(field, coeffs):
    return full_from_compact(CompactSym(field, len(coeffs) - 1, tuple(coeffs)))


def test_tensor_to_form_zero():
    form = tensor_to_form(sym(F5, (0, 0, 0, 0)))
    assert form.coeffs == (0, 0, 0, 0)


def test_tensor_to_form_cube_sum():
    # x^3 + y^3: end binomials are 1
    form = tensor_to_form(sym(F5, (1, 0, 0, 1)))
    assert form.coeffs == (1, 0, 0, 1)


def test_tensor_to_form_mod2():
    # binom(3,1) = 3 = 1 mod 2
    form = tensor_to_form(sym(F2, (0, 1, 0, 0)))
    assert form.coeffs == (0, 1, 0, 0)


def test_eval_form_at_zero():
    assert eval_form(sym(F5, (1, 2, 3, 4)), (0, 0)) == 0


def test_eval_form_rank1_power_identity():
    X = symmetric_outer_power((1, 2), 3, F5)
    assert eval_form(X, (1, 1)) == pow(3, 3, 5)  # (a . u)^3 = 3^3 = 2
    for u1 in range(5):
        for u2 in range(5):
            assert eval_form(X, (u1, u2)) == pow((u1 + 2 * u2) % 5, 3, 5)


def test_eval_form_all_ones_mod2():
    assert eval_form(sym(F2, (1, 1, 1, 1)), (1, 1)) == 0  # 8 entries sum to 0


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (5, 3), (7, 3), (2, 4), (3, 4), (5, 4), (7, 4)])
def test_eval_matches_collected_form(p, k):
    f = FieldSpec(p)
    step = 1 if p ** (k + 1) <= 3200 else 7
    for code in range(0, p ** (k + 1), step):
        X = compact_decode(code, f, k).full()
        form = tensor_to_form(X)
        for u1 in range(p):
            for u2 in range(p):
                assert eval_form(X, (u1, u2)) == form.evaluate((u1, u2))


def test_kernel_dimensions():
    expected = {
        (2, 3): 0, (3, 3): 2, (5, 3): 0, (7, 3): 0,
        (2, 4): 3, (3, 4): 1, (5, 4): 0, (7, 4): 0,
    }
    for (p, k), dim in expected.items():
        assert form_kernel_dimension(FieldSpec(p), k) == dim


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_collected_form_injective_iff_kernel_trivial(p, k):
    f = FieldSpec(p)
    seen = {}
    collision = False
    for code in range(p ** (k + 1)):
        X = compact_decode(code, f, k).full()
        key = tensor_to_form(X).coeffs
        if key in seen:
            collision = True
        seen[key] = code
    assert collision == (form_kernel_dimension(f, k) > 0)


def test_waring_check_rank1_tensors():
    s = symmetric_rank_strata(F5, 3)
    for v in [(1, 0), (1, 2), (0, 3)]:
        assert waring_rank_check(symmetric_outer_power(v, 3, F5), s)


def test_waring_check_all_f3():
    s = symmetric_rank_strata(F3, 3)
    for code in range(81):
        assert waring_rank_check(compact_decode(code, F3, 3).full(), s)


def test_waring_check_excludes_undecomposable():
    s = symmetric_rank_strata(F2, 3)
    with pytest.raises(UndecomposableError):
        waring_rank_check(sym(F2, (0, 1, 0, 0)), s)
