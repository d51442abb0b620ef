import json

import pytest

from muhankel.duals import (
    SU2,
    DualCatalog,
    IrrepLabel,
    PowerLaw,
    Product,
    TableWeight,
    Torus,
    casimir,
    dim,
    enumerate_dual,
    group_from_dict,
    group_to_dict,
    parse_group,
    weight_eval,
)


def su2_labels_oracle(cutoff, half_integers=True):
    """Brute-force spin enumeration: all l with l(l+1) <= cutoff."""
    out = []
    step = 0.5 if half_integers else 1.0
    l = 0.0
    while l * (l + 1) <= cutoff:
        out.append(l)
        l += step
    return out


def test_enumerate_su2_cutoff_6():
    cat = enumerate_dual(SU2(), 6.0)
    spins = [label.index[0] / 2 for label in cat.labels]
    assert spins == su2_labels_oracle(6.0) == [0, 0.5, 1, 1.5, 2]
    assert [dim(l) for l in cat.labels] == [1, 2, 3, 4, 5]
    assert cat.dense_dim == 15


def test_enumerate_torus_cutoff_4():
    cat = enumerate_dual(Torus(1), 4.0)
    ns = sorted(label.index[0] for label in cat.labels)
    assert ns == [-2, -1, 0, 1, 2]
    assert all(dim(l) == 1 for l in cat.labels)
    assert cat.dense_dim == 5


def test_enumerate_su2_cutoff_zero():
    cat = enumerate_dual(SU2(), 0.0)
    assert len(cat.labels) == 1
    assert cat.labels[0].index == (0,)
    assert cat.dense_dim == 1


def test_enumerate_rejects_negative_cutoff():
    with pytest.raises(ValueError):
        enumerate_dual(SU2(), -1.0)


@pytest.mark.parametrize(
    "group, cutoff", [(Torus(1), 4.0e12), (SU2(), 1.0e12)], ids=["torus", "su2"]
)
def test_enumerate_resource_guard(group, cutoff):
    # |n| up to ~2e6 on the torus, k up to ~2e6 on SU(2): > 1e6 labels either way
    with pytest.raises(ValueError, match=f"cutoff {cutoff} yields more labels than the guard"):
        enumerate_dual(group, cutoff)


def test_dim_values():
    assert dim(IrrepLabel(SU2(), (2,))) == 3  # l = 1
    assert dim(IrrepLabel(Torus(1), (7,))) == 1
    prod = Product((SU2(), Torus(1)))
    assert dim(IrrepLabel(prod, (2, 3))) == 3 * 1


def test_casimir_values():
    assert casimir(IrrepLabel(SU2(), (4,))) == 6.0  # l = 2 -> l(l+1)
    assert casimir(IrrepLabel(Torus(1), (-3,))) == 9.0
    assert casimir(IrrepLabel(SU2(), (0,))) == 0.0
    prod = Product((SU2(), Torus(2)))
    assert casimir(IrrepLabel(prod, (2, 1, 2))) == 2.0 + 5.0


def test_weight_eval_power_law():
    l1 = IrrepLabel(SU2(), (2,))  # l = 1
    assert weight_eval(PowerLaw(2.0), l1) == 4.0
    assert weight_eval(PowerLaw(0.0), l1) == 1.0
    n3 = IrrepLabel(Torus(1), (3,))
    assert weight_eval(PowerLaw(-1.0), n3) == 0.25


def test_weight_eval_table():
    half = IrrepLabel(SU2(), (1,))  # l = 1/2
    table = TableWeight({half: 0.25})
    assert weight_eval(table, half) == 0.25
    with pytest.raises(KeyError):
        weight_eval(table, IrrepLabel(SU2(), (0,)))
    with pytest.raises(ValueError):
        TableWeight({half: 0.0})


def test_label_validation():
    with pytest.raises(ValueError):
        IrrepLabel(SU2(), (-1,))
    with pytest.raises(ValueError):
        IrrepLabel(SU2(half_integers=False), (3,))
    with pytest.raises(ValueError):
        IrrepLabel(Torus(2), (1,))
    with pytest.raises(ValueError):
        Product((SU2(),))
    with pytest.raises(ValueError):
        Product((Product((SU2(), Torus(1))), SU2()))


@pytest.mark.parametrize("group", [SU2(), SU2(half_integers=False), Torus(1), Torus(2)])
@pytest.mark.parametrize("small,big", [(0.0, 3.0), (2.0, 9.0), (5.0, 5.0)])
def test_enumeration_monotone_prefix(group, small, big):
    lo = enumerate_dual(group, small)
    hi = enumerate_dual(group, big)
    assert hi.labels[: len(lo.labels)] == lo.labels


def test_integer_dual_is_even_k_subset():
    full = enumerate_dual(SU2(), 20.0)
    integer = enumerate_dual(SU2(half_integers=False), 20.0)
    even = [l.index for l in full.labels if l.index[0] % 2 == 0]
    assert [l.index for l in integer.labels] == even


def test_offsets_partition_and_order():
    cat = enumerate_dual(Product((SU2(), Torus(1))), 6.0)
    pos = 0
    for label in cat.labels:
        start, length = cat.offsets[label]
        assert start == pos
        assert length == dim(label)
        pos += length
    assert pos == cat.dense_dim


def test_sorted_by_casimir_then_index():
    cat = enumerate_dual(Torus(2), 8.0)
    keys = [(casimir(l), l.index) for l in cat.labels]
    assert keys == sorted(keys)


def test_restrict_keeps_order():
    cat = enumerate_dual(Torus(1), 9.0)
    half = cat.restrict(lambda l: l.index[0] >= 0)
    assert [l.index[0] for l in half.labels] == [0, 1, 2, 3]
    assert half.dense_dim == 4
    empty = cat.restrict(lambda l: False)
    assert empty.dense_dim == 0


def test_catalog_json_round_trip():
    cat = enumerate_dual(Product((SU2(), Torus(1))), 4.0)
    blob = json.dumps(cat.to_dict())
    back = DualCatalog.from_dict(json.loads(blob))
    assert back == cat
    assert back.offsets == cat.offsets


def test_group_dict_round_trip():
    for g in [SU2(), SU2(half_integers=False), Torus(3), Product((SU2(), Torus(2)))]:
        assert group_from_dict(group_to_dict(g)) == g


def test_parse_group():
    assert parse_group("su2") == SU2()
    assert parse_group("su2int") == SU2(half_integers=False)
    assert parse_group("torus:2") == Torus(2)
    assert parse_group("su2xtorus:1") == Product((SU2(), Torus(1)))
    with pytest.raises(ValueError):
        parse_group("so3")


def test_catalog_rejects_duplicate_label():
    payload = enumerate_dual(SU2(), 6.0).to_dict()
    payload["labels"].append(payload["labels"][0])
    with pytest.raises(ValueError, match=r"duplicate label \(0,\) at position 5"):
        DualCatalog.from_dict(payload)


@pytest.mark.parametrize("cutoff", [float("nan"), float("inf")])
def test_catalog_rejects_non_finite_cutoff(cutoff):
    payload = enumerate_dual(SU2(), 2.0).to_dict()
    payload["cutoff"] = cutoff
    with pytest.raises(ValueError, match=f"cutoff must be finite, got {cutoff}"):
        DualCatalog.from_dict(json.loads(json.dumps(payload)))


def test_weight_eval_rejects_out_of_range_power_law():
    label = enumerate_dual(SU2(), 6.0).labels[3]  # k = 3, r = 1.5
    with pytest.raises(ValueError, match=r"label index \(3,\) with exponent 1000.0 is inf"):
        weight_eval(PowerLaw(1000.0), label)
    with pytest.raises(ValueError, match=r"label index \(3,\) with exponent -1000.0 is 0.0"):
        weight_eval(PowerLaw(-1000.0), label)
