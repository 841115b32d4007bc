import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symcanon import (
    AsymmetricTensorError,
    CompactSym,
    FieldSpec,
    SymTensor,
    Tensor,
    classify,
    compact_from_full,
    decode,
    decompose,
    diff,
    encode,
    format_literal,
    full_from_compact,
    general_rank_strata,
    is_symmetric,
    load_fixture,
    orbit,
    parse_literal,
    symmetric_outer_power,
    symmetric_rank_strata,
)
from symcanon.report import ERRATUM_SUSPECTED, ErratumNote, FixtureTable
from symcanon.tensor import twos_counts

from conftest import compact_decode

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def sym(field, coeffs):
    return full_from_compact(CompactSym(field, len(coeffs) - 1, tuple(coeffs)))


# ---------------------------------------------------------------------------
# flatten order
# ---------------------------------------------------------------------------

def test_flatten_zero():
    assert sym(F2, (0, 0, 0, 0)).entries == (0,) * 8


def test_flatten_last_entry_only():
    # reference-table rank-1 row over F_2
    assert sym(F2, (0, 0, 0, 1)).entries == (0, 0, 0, 0, 0, 0, 0, 1)


def test_flatten_order3_c_class():
    # rank-3 row of the F_3 table, shown in slice form in the source
    assert sym(F3, (0, 0, 1, 0)).entries == (0, 0, 0, 1, 0, 1, 1, 0)


def test_unflatten_round_trip_exhaustive_f2():
    # a tensor rebuilt from its flat entries is the same tensor, with the same code
    for code in range(2**8):
        X = decode(code, F2, 3)
        assert Tensor(F2, tuple(list(X.entries))) == X
        assert encode(Tensor(F2, X.entries)) == code


def test_round_trip_crosses_symmetric_subclass():
    X = sym(F3, (0, 1, 0, 2))
    assert type(decode(encode(X), F3, 3)) is Tensor
    assert decode(encode(X), F3, 3) == X
    assert hash(decode(encode(X), F3, 3)) == hash(X)


def test_unflatten_order4_positions():
    v = [0] * 16
    for pos in (1, 2, 4, 8):  # x1112, x1121, x1211, x2111: one 2-subscript each
        v[pos] = 1
    X = Tensor(F2, tuple(v))
    assert [t for t, x in enumerate(X.entries) if x] == [t for t, j in enumerate(twos_counts(4)) if j == 1]
    assert compact_from_full(X).coeffs == (0, 1, 0, 0, 0)


def test_unflatten_length_mismatch():
    # flat entries must number 2^k with k >= 2, and a literal must match the order asked for
    for n in (0, 2, 6, 12):
        with pytest.raises(ValueError, match="2\\^k"):
            Tensor(F2, (0,) * n)
    with pytest.raises(ValueError, match="expected 4"):
        parse_literal(" ".join("0" * 8), F2, order=4)


# ---------------------------------------------------------------------------
# symmetry predicate and compact coordinates
# ---------------------------------------------------------------------------

def test_is_symmetric_zero():
    assert is_symmetric(Tensor(F2, (0,) * 8))


def test_is_symmetric_rejects_lone_entry():
    v = [0] * 8
    v[1] = 1  # x112 set, x121 not
    assert not is_symmetric(Tensor(F2, tuple(v)))


def test_symmetric_outer_power_always_symmetric():
    for p in (2, 3, 5):
        f = FieldSpec(p)
        for a1 in range(p):
            for a2 in range(p):
                if (a1, a2) == (0, 0):
                    continue
                for k in (3, 4):
                    assert is_symmetric(symmetric_outer_power((a1, a2), k, f))


def test_compact_round_trip_exhaustive():
    for p, k in [(2, 3), (3, 3), (2, 4), (3, 4)]:
        f = FieldSpec(p)
        count = 0
        for code in range(p ** (k + 1)):
            digits = []
            c = code
            for _ in range(k + 1):
                c, d = divmod(c, p)
                digits.append(d)
            comp = CompactSym(f, k, tuple(reversed(digits)))
            assert compact_from_full(full_from_compact(comp)) == comp
            count += 1
        assert count == p ** (k + 1)


def test_symmetric_space_sizes():
    # 16, 81, 2401 symmetric tensors at order 3; 243 at order 4
    assert len({full_from_compact(CompactSym(F2, 3, (a, b, c, d))).entries
                for a in range(2) for b in range(2) for c in range(2) for d in range(2)}) == 16
    assert len({encode(full_from_compact(CompactSym(F3, 3, (a, b, c, d))))
                for a in range(3) for b in range(3) for c in range(3) for d in range(3)}) == 81
    f7 = FieldSpec(7)
    assert len({encode(full_from_compact(CompactSym(f7, 3, t)))
                for t in ((a, b, c, d) for a in range(7) for b in range(7)
                          for c in range(7) for d in range(7))}) == 2401
    assert len({encode(full_from_compact(CompactSym(F3, 4, (a, b, c, d, e))))
                for a in range(3) for b in range(3) for c in range(3)
                for d in range(3) for e in range(3)}) == 243


def test_compact_order4_example():
    # rank-8 row of the order-4 F_3 table has this support pattern
    assert sym(F3, (0, 0, 1, 0, 0)).entries == (
        0, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 0)


def test_compact_rejects_asymmetric():
    v = [0] * 8
    v[1] = 1
    with pytest.raises(AsymmetricTensorError):
        compact_from_full(Tensor(F2, tuple(v)))


def test_symtensor_constructor_validates():
    with pytest.raises(AsymmetricTensorError):
        SymTensor(F2, (0, 1, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# symmetric outer powers
# ---------------------------------------------------------------------------

def test_outer_power_e1():
    assert symmetric_outer_power((1, 0), 3, F2).entries == (1, 0, 0, 0, 0, 0, 0, 0)


def test_outer_power_all_ones():
    assert symmetric_outer_power((1, 1), 3, F2).entries == (1,) * 8


def test_outer_power_f5():
    t = symmetric_outer_power((1, 2), 3, F5)
    assert compact_from_full(t).coeffs == (1, 2, 4, 3)


def test_outer_power_rejects_zero_vector():
    with pytest.raises(ValueError):
        symmetric_outer_power((0, 0), 3, F2)


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def test_encode_zero_and_one():
    assert encode(sym(F2, (0, 0, 0, 0))) == 0
    assert encode(decode(1, F2, 3)) == 1
    assert decode(1, F2, 3).entries == (0, 0, 0, 0, 0, 0, 0, 1)


def test_code_out_of_range():
    # a bool is an Integral but not a code
    for bad in (2**8, -1, True, False):
        with pytest.raises(ValueError):
            decode(bad, F2, 3)


def test_codes_are_integers_of_any_integer_type():
    # numpy's integer scalars are numbers.Integral; floats are not codes
    assert decode(np.int64(1), F2, 3).entries == (0, 0, 0, 0, 0, 0, 0, 1)
    assert compact_decode(np.int32(5), F3, 3).coeffs == (0, 0, 1, 2)
    for bad in (1.0, np.float64(1)):
        with pytest.raises(ValueError):
            decode(bad, F2, 3)
        with pytest.raises(ValueError):
            compact_decode(bad, F2, 3)


def test_code_order_agrees_with_lex_order():
    # independent oracle: compare flattened tuples lexicographically
    rng = random.Random(20240811)
    for _ in range(1000):
        a = tuple(rng.randrange(5) for _ in range(8))
        b = tuple(rng.randrange(5) for _ in range(8))
        ca, cb = encode(Tensor(F5, a)), encode(Tensor(F5, b))
        assert (a < b) == (ca < cb) and (a == b) == (ca == cb)


def test_encode_decode_round_trip_exhaustive_small():
    for p, k in [(2, 3), (3, 3)]:
        f = FieldSpec(p)
        for code in range(p ** (1 << k)) if p == 2 else range(0, p ** (1 << k), 97):
            assert encode(decode(code, f, k)) == code


# ---------------------------------------------------------------------------
# literals
# ---------------------------------------------------------------------------

def test_parse_full_literal():
    X = parse_literal("0,0,0,0,0,0,0,1", F2)
    assert X.entries == (0, 0, 0, 0, 0, 0, 0, 1)
    assert parse_literal("0 0 0 0 0 0 0 1", F2) == X


def test_parse_compact_literal():
    X = parse_literal("c:0,1,0,0", F2)
    assert X.entries == (0, 1, 1, 0, 1, 0, 0, 0)


def test_parse_rejects_bad_literals():
    for bad in ("0,1,2", "9,0,0,0,0,0,0,0", "c:1,2", "x,0,0,0,0,0,0,0"):
        with pytest.raises(ValueError):
            parse_literal(bad, F3)
    with pytest.raises(ValueError):
        parse_literal("0,0,0,0,0,0,0,1", F2, order=4)


@pytest.mark.parametrize("bad", ["1_0", "+1", "-0", "\u0663", "\uff13", "\u00b2", "1.0", "0x1"])
def test_parse_accepts_only_ascii_decimal_digits(bad):
    # int() reads each of these as a number; a literal digit is [0-9]+ only
    F11 = FieldSpec(11)
    assert parse_literal("c:0,1,1,1", F11) == parse_literal("c:00,1,01,1", F11)
    for text in (f"c:{bad},1,1,1", f"c:1,{bad},1,1", ",".join([bad] + ["0"] * 7)):
        with pytest.raises(ValueError, match="bad tensor literal digit"):
            parse_literal(text, F11)


@pytest.mark.parametrize("bad", ["c:1,2,,0,3", "c:0,1,1,1,", "c:,0,1,1,1", "0,0,0, ,0,0,0,0,1",
                                 "0,0,0,0,0,0,0,1,"])
def test_parse_rejects_empty_fields(bad):
    # dropping an empty field would answer for a shorter literal: c:1,2,,0,3
    # is no order-3 tensor; spaces alone, or beside commas, still separate
    F5 = FieldSpec(5)
    X = parse_literal("c:0,1,1,1", F5)
    assert parse_literal("c:0, 1, 1, 1", F5) == parse_literal("c:0 1 1 1", F5) == X
    with pytest.raises(ValueError, match="bad tensor literal digit"):
        parse_literal(bad, F5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.lists(st.integers(0, 6), min_size=8, max_size=8))
def test_literal_round_trip(which, digits):
    p = [2, 3, 5, 7, 13][which]
    f = FieldSpec(p)
    digits = [d % p for d in digits]
    X = Tensor(f, tuple(digits))
    assert parse_literal(format_literal(X), f) == X


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(3, 4), st.lists(st.integers(0, 6), min_size=5, max_size=5))
def test_compact_literal_round_trip(which, k, coeffs):
    p = [2, 5, 7][which]
    f = FieldSpec(p)
    comp = CompactSym(f, k, tuple(c % p for c in coeffs[: k + 1]))
    X = full_from_compact(comp)
    assert parse_literal(format_literal(X, compact=True), f) == X


def _check_fields(v):
    """The fields of value v, after checking that the same objects build an
    equal-field copy by position, by keyword and mixed, that a missing, an
    unknown or a doubled field is a TypeError, and that no field can be
    assigned or deleted."""
    names = v.__match_args__
    fields = [getattr(v, name) for name in names]
    named = dict(zip(names, fields))
    mixed = dict(zip(names[1:], fields[1:]))
    for copy in (type(v)(*fields), type(v)(**named), type(v)(fields[0], **mixed)):
        assert type(copy) is type(v) and all(getattr(copy, name) is named[name] for name in names)
    for args, kwargs in [(fields[:-1], {}), ((), mixed), (fields, {"other": 0}), (fields, {names[-1]: fields[-1]})]:
        with pytest.raises(TypeError):
            type(v)(*args, **kwargs)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(v, names[0], fields[0])
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(v, names[0])
    return fields


def test_value_classes_keep_the_frozen_dataclass_behaviour():
    # the package's value classes are plain classes, so that it never
    # imports dataclasses: fields, repr, equality, hash and immutability
    # are those the frozen dataclasses had
    X = parse_literal("c:0,1,0,1", F3)
    values = [F3, X, Tensor(F3, X.entries), compact_from_full(X), orbit(X), decompose(X)]
    assert [repr(v) for v in values] == [
        "FieldSpec(p=3)",
        "SymTensor(field=FieldSpec(p=3), entries=(0, 1, 1, 0, 1, 0, 0, 1))",
        "Tensor(field=FieldSpec(p=3), entries=(0, 1, 1, 0, 1, 0, 0, 1))",
        "CompactSym(field=FieldSpec(p=3), order=3, coeffs=(0, 1, 0, 1))",
        "Orbit(tensor=SymTensor(field=FieldSpec(p=3), entries=(0, 1, 1, 0, 1, 0, 0, 1)), canonical=1000, size=24)",
        "Witness(vectors=((1, 2), (2, 2)))",
    ]
    for v in values:
        fields = _check_fields(v)
        copy = type(v)(*fields)
        assert copy == v and hash(copy) == hash(v) and hash(v) == hash(tuple(fields))
    assert values[1] == values[2] and hash(values[1]) == hash(values[2])  # SymTensor == Tensor by value
    assert F3 != FieldSpec(5) and values[3] != CompactSym(F3, 3, (0, 1, 0, 2))
    assert F3 != (3,) and values[5] != ((1, 2), (2, 2))
    with pytest.raises(TypeError):
        type(values[5])()


def test_whole_space_value_classes_are_frozen_too():
    # orbit records, reports, strata and audit records share the query
    # classes' base: the five that were frozen dataclasses keep their
    # repr, equality and hash; the report and both stratifications, which
    # were mutable, now refuse assignment and keep their cached properties
    report, table = classify(F3, 3), load_fixture(3, 3)
    note = ErratumNote("E1", ERRATUM_SUSPECTED, (1,), ("orbit_size",), "9", "a test note")
    (missing,) = diff(report, FixtureTable(3, 3, table.rows[:-1], ()))
    values = [report.records[1], table.rows[1], note, FixtureTable(3, 3, table.rows[:1], (note,)), missing]
    assert [repr(v) for v in values] == [
        "OrbitRecord(rank=1, canonical=(0, 0, 0, 0, 0, 0, 0, 1), canonical_code=1, orbit_size=8, "
        "stabilizer_size=6)",
        "FixtureRow(index=1, rank=1, orbit_size=8, canonical=(0, 0, 0, 0, 0, 0, 0, 1))",
        "ErratumNote(id='E1', classification='ERRATUM-SUSPECTED', rows=(1,), fields=('orbit_size',), "
        "printed='9', reason='a test note')",
        "FixtureTable(p=3, order=3, rows=(FixtureRow(index=0, rank=0, orbit_size=1, "
        "canonical=(0, 0, 0, 0, 0, 0, 0, 0)),), errata=(ErratumNote(id='E1', "
        "classification='ERRATUM-SUSPECTED', rows=(1,), fields=('orbit_size',), printed='9', "
        "reason='a test note'),))",
        "Discrepancy(classification='MISMATCH', p=3, order=3, erratum_id=None, rank=4, field='row', "
        "printed='absent', computed='size 16, canonical 0 0 0 1 0 1 1 1', "
        "note='computed orbit missing from the table')",
    ]
    for v in values:
        fields = _check_fields(v)
        copy = type(v)(*fields)
        assert copy == v and hash(copy) == hash(v) and hash(v) == hash(tuple(fields))
        assert v != type(v)(*fields[:-1], "other") and v != tuple(fields)
    fields = _check_fields(report)
    assert type(report)(*fields) == report != type(report)(*fields[:-1], -1.0)
    strata, general = symmetric_rank_strata(F3, 3), general_rank_strata(F2, 3)
    for v in (strata, general):
        _check_fields(v)
    assert strata.strata is strata.strata and [s.size for s in strata.strata] == strata.stratum_sizes()
    assert strata.undecomposable is strata.undecomposable and strata.undecomposable.size == 0
    assert repr(strata).startswith("RankStratification(field=FieldSpec(p=3), order=3, generator_vectors=")
