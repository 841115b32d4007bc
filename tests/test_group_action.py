import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcanon import (
    AsymmetricTensorError,
    CompactSym,
    FieldSpec,
    GroupElement,
    Tensor,
    act,
    act_diagonal,
    canonical_form,
    compact_from_full,
    count_stabilizer_directly,
    decode,
    encode,
    enumerate_gl2,
    full_from_compact,
    group_order,
    is_symmetric,
    orbit,
    stabilizer_size,
)
from symcanon.group_action import _generators, action_stack, orbit_labels
from symcanon.tensor import compact_decode, compact_encode

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def sym(field, coeffs):
    return full_from_compact(CompactSym(field, len(coeffs) - 1, tuple(coeffs)))


# ---------------------------------------------------------------------------
# group enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,count", [(2, 6), (3, 48), (7, 2016)])
def test_enumerate_gl2_counts(p, count):
    f = FieldSpec(p)
    gs = enumerate_gl2(f)
    assert len(gs) == count == group_order(f)
    assert len({g.m for g in gs}) == count
    for g in gs[:50]:
        assert g.det() != 0


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        GroupElement(F3, ((1, 2), (2, 4)))


# ---------------------------------------------------------------------------
# single-mode action
# ---------------------------------------------------------------------------

def test_act_identity_all_modes():
    X = sym(F5, (1, 2, 3, 4))
    e = GroupElement.identity(F5)
    for mode in (1, 2, 3):
        assert act(e, X, mode).entries == X.entries


def test_act_matches_contraction_definition():
    # independent oracle: y_{i1 i2 i3} = sum_j g_{i_m j} x at the mode
    import random

    rng = random.Random(7)
    g = GroupElement(F5, ((2, 1), (3, 1)))
    for _ in range(20):
        X = Tensor(F5, tuple(rng.randrange(5) for _ in range(8)))
        for mode in (1, 2, 3):
            Y = act(g, X, mode)
            for t in range(8):
                subs = [(t >> (2 - m)) & 1 for m in range(3)]  # 0-based
                i = subs[mode - 1]
                total = 0
                for j in (0, 1):
                    src = list(subs)
                    src[mode - 1] = j
                    idx = (src[0] << 2) | (src[1] << 1) | src[2]
                    total += g.m[i][j] * X.entries[idx]
                assert Y.entries[t] == total % 5


def test_act_mode_out_of_range():
    X = sym(F3, (0, 0, 0, 1))
    g = GroupElement.identity(F3)
    for mode in (0, 4):
        with pytest.raises(ValueError):
            act(g, X, mode)


def test_swap_matrix_reverses_compact():
    g = GroupElement(F3, ((0, 1), (1, 0)))
    X = sym(F3, (0, 1, 2, 1))
    Y = act(g, act(g, act(g, X, 1), 2), 3)
    assert compact_from_full(Tensor(F3, Y.entries)).coeffs == (1, 2, 1, 0)


def test_scaling_acts_as_cube():
    g = GroupElement(F5, ((2, 0), (0, 2)))
    X = sym(F5, (1, 2, 3, 4))
    Y = act_diagonal(g, X)
    assert Y.entries == tuple(3 * v % 5 for v in X.entries)  # 2^3 = 8 = 3 mod 5


# ---------------------------------------------------------------------------
# diagonal action
# ---------------------------------------------------------------------------

def test_act_diagonal_identity_and_zero():
    e = GroupElement.identity(F3)
    X = sym(F3, (0, 1, 0, 2))
    assert act_diagonal(e, X).entries == X.entries
    zero = sym(F3, (0, 0, 0, 0))
    for g in enumerate_gl2(F3)[:10]:
        assert act_diagonal(g, zero).entries == zero.entries


def test_act_diagonal_rejects_asymmetric():
    v = [0] * 8
    v[1] = 1
    with pytest.raises(AsymmetricTensorError):
        act_diagonal(GroupElement.identity(F2), Tensor(F2, tuple(v)))


@pytest.mark.parametrize("p", [2, 3])
def test_act_diagonal_preserves_symmetry_exhaustive(p):
    f = FieldSpec(p)
    gs = enumerate_gl2(f)
    for code in range(p**4):
        X = compact_decode(code, f, 3).full()
        for g in gs:
            assert is_symmetric(act_diagonal(g, X))


def test_some_g_swaps_rank_one_forms():
    X = decode(1, F2, 3)
    X = full_from_compact(compact_from_full(X))
    target = (1, 0, 0, 0, 0, 0, 0, 0)
    assert any(act_diagonal(g, X).entries == target for g in enumerate_gl2(F2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 47), st.integers(0, 47), st.integers(0, 80))
def test_action_law_composition(gi, hi, code):
    gs = enumerate_gl2(F3)
    g, h = gs[gi], gs[hi]
    gh = GroupElement(
        F3,
        tuple(
            tuple(sum(g.m[i][t] * h.m[t][j] for t in range(2)) % 3 for j in range(2))
            for i in range(2)
        ),
    )
    X = compact_decode(code, F3, 3).full()
    assert act_diagonal(gh, X).entries == act_diagonal(g, act_diagonal(h, X)).entries


# ---------------------------------------------------------------------------
# orbits, canonical forms, stabilizers
# ---------------------------------------------------------------------------

def test_orbit_of_zero():
    orb = orbit(sym(F3, (0, 0, 0, 0)))
    assert orb.members == (0,) and orb.size == 1 and orb.canonical == 0


def test_orbit_sizes_from_tables():
    assert orbit(sym(F3, (0, 1, 0, 2))).size == 24
    assert orbit(sym(F2, (0, 1, 1, 0))).size == 1
    # the three rank-1 tensors over F_2 form one orbit of size 3
    assert orbit(sym(F2, (0, 0, 0, 1))).size == 3


def test_orbit_matches_pure_python_enumeration():
    # independent oracle: apply every group element with the scalar path
    for f, coeffs in [(F2, (1, 1, 0, 1)), (F3, (0, 1, 0, 2)), (F3, (2, 1, 0, 1))]:
        X = sym(f, coeffs)
        direct = {encode(act_diagonal(g, X)) for g in enumerate_gl2(f)}
        orb = orbit(X)
        assert set(orb.members) == direct
        assert orb.canonical == min(direct)
        assert orb.size == len(direct)


def test_canonical_form_examples():
    assert canonical_form(sym(F3, (0, 0, 0, 0))).entries == (0,) * 8
    # any rank-2 tensor over F_5 lands on the table's rank-2 canonical
    X = sym(F5, (0, 0, 0, 2))  # e2^3 + e2^3 is rank 2; use an orbit member
    f7 = FieldSpec(7)
    assert canonical_form(sym(f7, (0, 0, 0, 2))).entries == (0, 0, 0, 0, 0, 0, 0, 2)


def test_canonical_form_idempotent_and_orbit_constant():
    for code in range(81):
        X = compact_decode(code, F3, 3).full()
        c = canonical_form(X)
        assert canonical_form(c).entries == c.entries
        for g in enumerate_gl2(F3)[::7]:
            assert canonical_form(act_diagonal(g, X)).entries == c.entries


def test_orbit_sizes_divide_group_order():
    n = group_order(F3)
    for code in range(81):
        assert n % orbit(compact_decode(code, F3, 3).full()).size == 0


def test_stabilizer_sizes():
    assert stabilizer_size(sym(F2, (0, 0, 0, 0))) == 6
    assert stabilizer_size(sym(F2, (0, 1, 1, 0))) == 6  # orbit size 1
    f11 = FieldSpec(11)
    assert stabilizer_size(sym(f11, (0, 1, 0, 1))) == 2  # rank-2 orbit, size 6600


def test_stabilizer_direct_count_agrees():
    for f in (F2, F3):
        n = group_order(f)
        for code in range(f.p**4):
            X = compact_decode(code, f, 3).full()
            orb = orbit(X)
            direct = count_stabilizer_directly(X)
            assert direct * orb.size == n
            assert direct == stabilizer_size(X)


# ---------------------------------------------------------------------------
# the two generators and their compact action
# ---------------------------------------------------------------------------

def _generated_order(mats, p):
    """Order of the group generated by 2x2 matrices over F_p: the closure of
    the identity under right multiplication, on codes a p^3 + b p^2 + c p + d."""
    place = p ** np.arange(3, -1, -1)
    seen = np.zeros(p**4, dtype=bool)
    frontier = np.array([[1, 0, 0, 1]])
    seen[frontier @ place] = True
    while frontier.size:
        m = frontier.reshape(-1, 2, 2)
        products = np.concatenate([(m @ np.array(g) % p).reshape(-1, 4) for g in mats])
        codes, first = np.unique(products @ place, return_index=True)
        fresh = ~seen[codes]
        seen[codes[fresh]] = True
        frontier = products[first[fresh]]
    return int(seen.sum())


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_two_generators_generate_gl2(p):
    f = FieldSpec(p)
    gens = _generators(f)
    assert len(gens) == 2
    assert _generated_order(gens, p) == group_order(f)
    for g in gens:  # neither generator suffices alone
        assert _generated_order([g], p) < group_order(f)


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5) for k in (3, 4)])
def test_action_stack_is_the_compact_diagonal_action(p, k):
    # independent oracle: the scalar act_diagonal on the full tensor
    f = FieldSpec(p)
    stack = action_stack(f, k)
    assert stack.shape == (2, k + 1, k + 1)
    for g, S in zip(_generators(f), stack):
        g = GroupElement(f, g)
        for code in range(p ** (k + 1)):
            c = compact_decode(code, f, k)
            image = compact_from_full(act_diagonal(g, c.full())).coeffs
            assert image == tuple(int(v) for v in S @ c.coeffs % p), (g.m, c.coeffs)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_orbit_labels_are_the_least_codes_of_the_scalar_orbits(p, k):
    # independent oracle: every group element applied with the scalar path
    f = FieldSpec(p)
    lab = orbit_labels(action_stack(f, k), p)
    assert lab.dtype == np.int32 and lab.shape == (p ** (k + 1),)
    gs = enumerate_gl2(f)
    for code in range(p ** (k + 1)):
        X = compact_decode(code, f, k).full()
        least = min(compact_encode(compact_from_full(act_diagonal(g, X))) for g in gs)
        assert lab[code] == least, (p, k, code)


def test_orbit_labels_jump_along_a_long_cycle(monkeypatch):
    # multiplication by x in F_3[x]/(x^7 - x^5 - 2) cycles through all 2186
    # nonzero codes; propagation alone lowers a label by one step of the
    # cycle per round, pointer jumping needs about 2 log2(2186) rounds
    p, width = 3, 7
    S = np.zeros((width, width), dtype=np.int64)
    S[np.arange(1, width), np.arange(width - 1)] = 1
    S[:, -1] = (2, 0, 0, 0, 0, 1, 0)
    rounds, real = [], np.array_equal

    def array_equal(a, b):  # orbit_labels compares once per round
        rounds.append(1)
        return real(a, b)

    monkeypatch.setattr(np, "array_equal", array_equal)
    lab = orbit_labels(S[None], p)
    assert lab[0] == 0 and (lab[1:] == 1).all()
    assert 0 < len(rounds) <= 33, len(rounds)
