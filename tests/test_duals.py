import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muhankel.cli import main
from muhankel.duals import (
    SU2,
    DualCatalog,
    IrrepLabel,
    PowerLaw,
    Product,
    TableWeight,
    Torus,
    dim,
    enumerate_dual,
    group_from_dict,
    group_to_dict,
    parse_group,
    weight_eval,
)
from muhankel.duals import _atoms, _count
from muhankel.fredholm import numerical_index
from muhankel.operators import assemble
from muhankel.recovery import forward, stability_scan, tikhonov_recover
from muhankel.spectral import carleson_test, schatten_norm, schatten_series_scan
from muhankel.symbols import diagonal_symbol, random_matching_symbol

from helpers import restrict

GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"


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
    "group, cutoff",
    [(Torus(1), 4.0e12), (SU2(), 1.0e12), (Torus(2), 4.0e5), (Torus(3), 5.0e3)],
    ids=["torus", "su2", "torus2", "torus3"],
)
def test_enumerate_resource_guard(group, cutoff):
    # |n| up to ~2e6 on the torus, k up to ~2e6 on SU(2), about 1.26e6 and
    # 1.48e6 lattice points on torus:2 and torus:3: > 1e6 labels every way
    with pytest.raises(ValueError, match=f"cutoff {cutoff} yields more labels than the guard"):
        enumerate_dual(group, cutoff)


@pytest.mark.parametrize("spec, cutoff", [("torus:1xsu2", 1e300), ("su2xsu2", 1e308)])
def test_enumerate_guard_at_huge_cutoffs(spec, cutoff):
    # one slot alone passes the guard, so its range is capped: no walk over
    # 1e150 near-zero budgets, and no floor of 4 * 1e308 = inf
    with pytest.raises(ValueError, match=re.escape(f"cutoff {cutoff} yields more labels")):
        enumerate_dual(parse_group(spec), cutoff)


def test_enumerate_dense_dimension_guard():
    # k = 0..1999 is 2000 labels, under the label guard; the dense dimension
    # 2000 * 2001 / 2 is over it, and is reported exactly
    with pytest.raises(ValueError, match="catalog dense dimension 2001000 exceeds guard"):
        enumerate_dual(SU2(), 1.0e6)


@pytest.mark.parametrize("spec, cutoff", [
    ("su2", 420.0), ("su2int", 420.0), ("su2xtorus:1", 30.0), ("su2xsu2", 50.0),
    ("torus:2xsu2int", 40.0), ("torus:1", 49.0), ("torus:2", 17.3), ("torus:3", 30.5),
    ("su2int", 0.5), ("torus:1xtorus:2", 9.75), ("su2xsu2intxtorus:1", 12.25),
])
def test_predicted_size_equals_enumeration(spec, cutoff):
    group = parse_group(spec)
    catalog = enumerate_dual(group, cutoff)
    assert _count(_atoms(group), cutoff) == (len(catalog), catalog.dense_dim)


ATOM_SLOTS = {"su2": 1, "su2int": 1, "torus:1": 1, "torus:2": 2, "torus:3": 3}
# Largest cutoff drawn per index slot count, so that the oracle's box of
# per-slot values stays under about 30k indices.
CUTOFF_CAP = {1: 40, 2: 40, 3: 40, 4: 40, 5: 12, 6: 8.75, 7: 3.75, 8: 3.75, 9: 3.75}


def slot_values(spec, cutoff):
    """(value, Casimir, dimension) of every one-slot label of ``spec`` within
    the cutoff, one list per index slot, found by trying every value."""
    if spec.startswith("su2"):
        step = 2 if spec == "su2int" else 1
        return [[(k, k * (k + 2) / 4.0, k + 1) for k in range(0, 200, step)
                 if k * (k + 2) / 4.0 <= cutoff]]
    return [[(n, n * n, 1) for n in range(-100, 101) if n * n <= cutoff]] * ATOM_SLOTS[spec]


def brute_force_dual(specs, cutoff):
    """(index, Casimir, dimension) of the truncated dual of the product of
    ``specs``: the product of per-slot values, filtered by the summed
    Casimir and sorted by (Casimir, index)."""
    slots = [values for spec in specs for values in slot_values(spec, cutoff)]
    found = []
    for combo in itertools.product(*slots):
        cas = sum(c for _, c, _ in combo)
        if cas <= cutoff:
            d = 1
            for _, _, dk in combo:
                d *= dk
            found.append((tuple(k for k, _, _ in combo), cas, d))
    return sorted(found, key=lambda entry: (entry[1], entry[0]))


@st.composite
def specs_and_cutoffs(draw):
    specs = draw(st.lists(st.sampled_from(sorted(ATOM_SLOTS)), min_size=1, max_size=3))
    cap = CUTOFF_CAP[sum(ATOM_SLOTS[s] for s in specs)]
    cutoff = draw(st.one_of(
        st.integers(0, int(4 * cap)).map(lambda q: q / 4),  # every Casimir of SU(2) and T^d
        st.floats(0, cap),
    ))
    return specs, cutoff


@settings(max_examples=60, deadline=None)
@given(specs_and_cutoffs())
def test_enumeration_matches_brute_force(drawn):
    specs, cutoff = drawn
    group = parse_group("x".join(specs))
    catalog = enumerate_dual(group, cutoff)
    oracle = brute_force_dual(specs, cutoff)
    assert [l.index for l in catalog.labels] == [index for index, _, _ in oracle]
    assert [l.dim for l in catalog.labels] == [d for _, _, d in oracle]
    assert [l.casimir for l in catalog.labels] == [cas for _, cas, _ in oracle]
    assert catalog.dense_dim == sum(d for _, _, d in oracle)
    assert _count(_atoms(group), cutoff) == (len(catalog), catalog.dense_dim)


def test_product_radius_adds_slot_squares():
    # l = 1/2 and n = (1, 1): sqrt(1/4 + 1 + 1), exactly
    assert IrrepLabel(parse_group("su2xtorus:2"), (1, 1, 1)).radius == 1.5


@pytest.mark.parametrize("group, index", [
    (SU2(), (1.5,)), (Torus(2), "10"), (Torus(1), ("3",)), (SU2(), (float("inf"),)),
    (SU2(), (float("nan"),)),
])
def test_label_rejects_non_integer_index(group, index):
    with pytest.raises(ValueError, match="must hold integers only"):
        IrrepLabel(group, index)


def test_dim_values():
    assert dim(IrrepLabel(SU2(), (2,))) == 3  # l = 1
    assert dim(IrrepLabel(Torus(1), (7,))) == 1
    prod = Product((SU2(), Torus(1)))
    assert dim(IrrepLabel(prod, (2, 3))) == 3 * 1


def test_casimir_values():
    assert IrrepLabel(SU2(), (4,)).casimir == 6.0  # l = 2 -> l(l+1)
    assert IrrepLabel(Torus(1), (-3,)).casimir == 9.0
    assert IrrepLabel(SU2(), (0,)).casimir == 0.0
    prod = Product((SU2(), Torus(2)))
    assert IrrepLabel(prod, (2, 1, 2)).casimir == 2.0 + 5.0


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
    with pytest.raises(TypeError, match="unsupported product factor: 'su2'"):
        Product((SU2(), "su2"))


@pytest.mark.parametrize("group, index", [
    (SU2(), (2,)), (Torus(2), (1, -1)), (Product((SU2(), Torus(1))), (3, -2)),
])
def test_equal_labels_are_interchangeable_keys(group, index):
    # the hash is stored at construction; separately built equal labels,
    # including ones read back from JSON, must still hash and look up alike
    a = IrrepLabel(group, index)
    b = IrrepLabel(group_from_dict(group_to_dict(group)), tuple(float(i) for i in index))
    assert a is not b and a == b and hash(a) == hash(b)
    table = {a: "a"}
    table[b] = "b"
    assert table == {a: "b"} and table[b] == "b"
    other = IrrepLabel(Torus(1), (7,))
    assert other != a and other not in table


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
    keys = [(l.casimir, l.index) for l in cat.labels]
    assert keys == sorted(keys)


def test_restrict_keeps_order():
    cat = enumerate_dual(Torus(1), 9.0)
    half = restrict(cat, lambda l: l.index[0] >= 0)
    assert [l.index[0] for l in half.labels] == [0, 1, 2, 3]
    assert half.dense_dim == 4
    empty = restrict(cat, lambda l: False)
    assert empty.dense_dim == 0


def test_catalog_json_round_trip():
    cat = enumerate_dual(Product((SU2(), Torus(1))), 4.0)
    blob = json.dumps(cat.to_dict())
    back = DualCatalog.from_dict(json.loads(blob))
    assert back == cat
    assert back.offsets == cat.offsets
    # a Casimir stored as an integer, 1 for 1.0, is the label's own
    payload = json.loads(blob)
    payload["labels"][2]["casimir"] = 1
    assert DualCatalog.from_dict(payload) == cat


def test_label_at_returns_the_catalogs_own_label():
    cat = enumerate_dual(Product((SU2(), Torus(1))), 4.0)
    for label in cat.labels:
        assert cat.label_at(list(label.index), "codomain") is label
    one = enumerate_dual(SU2(), 2.0).labels[1]
    cat = enumerate_dual(SU2(), 2.0)
    # (1,) == (1.0,) == (True,), as IrrepLabel reads them
    for index in ([1], [1.0], [True], (1,)):
        found = cat.label_at(index, "domain")
        assert found is cat.labels[1] and found == one and found.index == (1,)


@pytest.mark.parametrize("index, message", [
    ([9], "domain label (9,) not in catalog"),
    ([1.5], "label index (1.5,) must hold integers only"),
    (["1"], "label index ('1',) must hold integers only"),
    ([0, 0], "index (0, 0) has 2 slots, group needs 1"),
    ([-2], "SU(2) label k must be >= 0, got -2"),
])
def test_label_at_refuses_what_irrep_label_refuses(index, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_dual(SU2(), 2.0).label_at(index, "domain")


def test_group_dict_round_trip():
    for g in [SU2(), SU2(half_integers=False), Torus(3), Product((SU2(), Torus(2)))]:
        assert group_from_dict(group_to_dict(g)) == g
    assert group_from_dict({"kind": "su2"}) == SU2()  # absent fields keep their defaults
    assert group_from_dict({"kind": "torus"}) == Torus(1)


@pytest.mark.parametrize("spec", ["su2", "su2int", "torus:2", "su2xtorus:1"])
def test_read_groups_are_one_object_per_group(spec):
    # labels read from two files compared their group dataclasses field by
    # field; one object per group makes that an identity check
    data = catalog_dict(parse_group(spec), 6.0)
    first, second = DualCatalog.from_dict(data), DualCatalog.from_dict(json.loads(json.dumps(data)))
    assert first.group is second.group is parse_group(spec) is group_from_dict(data["group"])
    assert all(a.group is b.group and a == b for a, b in zip(first, second, strict=True))
    fresh = dataclasses.replace(first.group)
    assert fresh is not first.group and fresh == first.group
    for label in first:
        other = IrrepLabel(fresh, label.index)
        assert other == label and hash(other) == hash(label) and other.dim == label.dim
    assert _atoms(fresh) is _atoms(first.group)


def catalog_dict(group, cutoff):
    return json.loads(json.dumps(enumerate_dual(group, cutoff).to_dict()))


@pytest.mark.parametrize("group, field, value, message", [
    (SU2(), ("group", "half_integers"), "false",
     "catalog field half_integers is 'false', not of type bool"),
    (SU2(), ("group", "half_integers"), 0, "catalog field half_integers is 0, not of type bool"),
    (Torus(1), ("group", "d"), 1.7, "catalog field d is 1.7, not of type int"),
    (Torus(1), ("group", "d"), True, "catalog field d is True, not of type int"),
    (SU2(), ("cutoff",), "2", "catalog field cutoff is '2', not of type int or float"),
    (SU2(), ("cutoff",), True, "catalog field cutoff is True, not of type int or float"),
    (SU2(), ("labels", 1, "dim"), 2.9, "catalog field dim is 2.9, not of type int"),
    (SU2(), ("labels", 0, "dim"), True, "catalog field dim is True, not of type int"),
    (SU2(), ("labels", 1, "dim"), 2.0, "catalog field dim is 2.0, not of type int"),
    (SU2(), ("labels", 1, "casimir"), "0.75",
     "catalog field casimir is '0.75', not of type int or float"),
    (SU2(), ("labels", 0, "casimir"), False,
     "catalog field casimir is False, not of type int or float"),
    # a catalog that contradicts itself; a cutoff below a label's Casimir had
    # emptied the half-cutoff label set of the compactness indicator
    (SU2(), ("cutoff",), 0.5, "label (1,) has Casimir 0.75, above the cutoff 0.5"),
    (SU2(), ("cutoff",), -3, "cutoff must be finite and >= 0, got -3.0"),
    (SU2(), ("labels", 1, "casimir"), 1.0, "label (1,): stored casimir 1.0 != 0.75"),
    (SU2(), ("labels", 1, "dim"), 3, "label (1,): stored dim 3 != 2"),
    (Torus(1), ("group", "d"), 0, "torus dimension must be >= 1, got 0"),
    (SU2(), ("group", "kind"), "sphere", "unknown group kind: 'sphere'"),
])
def test_catalog_fields_of_the_wrong_type_are_refused(tmp_path, capsys, group, field, value,
                                                      message):
    # each was coerced before: "false" read as true, 1.7 as 1, "2" as 2.0, 2.9
    # as 2; the contradictions were read as they stood
    payload = catalog_dict(group, 2.0)
    target = payload
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        DualCatalog.from_dict(payload)
    # read from a symbol file, the fault exits as a validation error
    symbol = {"codomain": payload, "domain": catalog_dict(group, 2.0), "blocks": []}
    (tmp_path / "sym.json").write_text(json.dumps(symbol))
    argv = ["spectrum", "--symbol", str(tmp_path / "sym.json"), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cutoff, message", [
    (0.5, "label (1,) has Casimir 0.75, above the cutoff 0.5"),
    (-3, "cutoff must be finite and >= 0, got -3.0"),
])
def test_symbol_with_catalogs_below_their_labels_exits_2(tmp_path, capsys, cutoff, message):
    # this spectrum run exited 0 before, its compactness indicator reading
    # min-sv ratio=inf over an empty half-cutoff label set
    payload = json.loads((GOLDEN_INPUTS / "su2-random.json").read_text())
    for side in ("codomain", "domain"):
        payload[side]["cutoff"] = cutoff
    (tmp_path / "sym.json").write_text(json.dumps(payload))
    argv = ["spectrum", "--symbol", str(tmp_path / "sym.json"), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "spectrum-manifest.json").exists()


@pytest.mark.parametrize("value", [2.0, True])
def test_true_symbol_catalog_of_the_wrong_type_exits_2(tmp_path, capsys, value):
    # the true symbol's catalogs are read against the data's: its dict equal to
    # theirs, a dim of 2.0 or true was let through before
    cat = enumerate_dual(SU2(), 2.0)
    sym = random_matching_symbol(cat, cat, seed=3)
    data = forward(assemble(sym, PowerLaw(0.0), PowerLaw(0.0)))
    (tmp_path / "data.json").write_text(json.dumps(data.to_dict()))
    payload = json.loads(json.dumps(sym.to_dict()))
    at = 1 if value == 2.0 else 0  # the label of dimension 2, or of dimension 1
    payload["codomain"]["labels"][at]["dim"] = value
    (tmp_path / "sym.json").write_text(json.dumps(payload))
    argv = ["recover", "--data", str(tmp_path / "data.json"), "--true-symbol",
            str(tmp_path / "sym.json"), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    assert f"catalog field dim is {value}, not of type int" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recover-manifest.json").exists()


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


CAT = enumerate_dual(SU2(), 2.0)
IDENTITY = diagonal_symbol(CAT)
# each parameter check: the call it guards, the parameter's name in the
# message, its bound, and a finite value outside that bound (-inf if none)
FINITE_CHECKS = {
    "PowerLaw": (PowerLaw, "power-law exponent", "", -math.inf),
    "TableWeight": (lambda v: TableWeight({CAT.labels[1]: v}),
                    "weight table value for (1,)", "> 0", 0.0),
    "DualCatalog": (lambda v: DualCatalog(SU2(), v, []), "cutoff", "", -math.inf),
    "enumerate_dual": (lambda v: enumerate_dual(SU2(), v), "cutoff", ">= 0", -1.0),
    "schatten_norm": (lambda v: schatten_norm(np.ones(2), v), "Schatten exponent p", "> 0", 0.0),
    "carleson_test": (lambda v: carleson_test(PowerLaw(0.0), CAT, v),
                      "Carleson exponent", "> 0", 0.0),
    "schatten_series_scan p": (lambda v: schatten_series_scan(1.0, v),
                               "Schatten exponent p", "> 0", -1.0),
    "schatten_series_scan alpha": (lambda v: schatten_series_scan(v, 2.0),
                                   "decay alpha", "", -math.inf),
    "numerical_index": (lambda v: numerical_index(assemble(IDENTITY, PowerLaw(0.0),
                                                           PowerLaw(0.0)), v),
                        "rank tolerance", "> 0", 0.0),
    "tikhonov_recover": (lambda v: tikhonov_recover(
        forward(assemble(IDENTITY, PowerLaw(0.0), PowerLaw(0.0))), PowerLaw(0.0),
        PowerLaw(0.0), v), "regularization parameter", ">= 0", -1.0),
    "stability_scan": (lambda v: stability_scan(IDENTITY, PowerLaw(0.0), PowerLaw(0.0),
                                                [1e-3, v], 1, 0),
                       "noise level delta", ">= 0", -1.0),
}


@pytest.mark.parametrize("check", FINITE_CHECKS)
@pytest.mark.parametrize("kind", ["nan", "inf", "out of bound"])
def test_finite_parameter_refusal_text(check, kind):
    call, name, bound, outside = FINITE_CHECKS[check]
    value = outside if kind == "out of bound" else float(kind)
    with pytest.raises(ValueError) as exc_info:
        call(value)
    assert str(exc_info.value) == (
        f"{name} must be finite{' and ' + bound if bound else ''}, got {value}")


def test_weight_eval_rejects_out_of_range_power_law():
    label = enumerate_dual(SU2(), 6.0).labels[3]  # k = 3, r = 1.5
    with pytest.raises(ValueError, match=r"label index \(3,\) with exponent 1000.0 is inf"):
        weight_eval(PowerLaw(1000.0), label)
    with pytest.raises(ValueError, match=r"label index \(3,\) with exponent -1000.0 is 0.0"):
        weight_eval(PowerLaw(-1000.0), label)
