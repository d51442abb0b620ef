"""The file readers against the per-entry readers they replaced.

``SpectralData.from_dict`` and ``Symbol.from_dict`` check and convert a whole
file in array passes. The references below read a file one entry at a time,
as both readers did before. On valid files the two must give bit-for-bit
equal arrays; on files with faults they must raise the same error with the
same message, so that a file with several faults names the same one first.
Needs ``hypothesis`` (in the ``test`` extra)."""

import copy
import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muhankel.duals import SU2, UNIT_WEIGHT, DualCatalog, enumerate_dual
from muhankel.operators import assemble
from muhankel.recovery import SpectralData, _label_masses, _numbers, _parse_runs, forward
from muhankel.symbols import (
    Symbol,
    complex_from_parts,
    diagonal_symbol,
    parse_numbers,
    random_matching_symbol,
    random_symbol,
)

from test_recovery_properties import catalogs, spectral_arrays

DATA = Path(__file__).parent / "data"


def reference_spectral_data(data) -> SpectralData:
    """``SpectralData.from_dict`` entry by entry: each triple's runs and
    value lists checked and gathered in turn, each key looked up alone."""
    codomain = DualCatalog.from_dict(data["codomain"])
    same = data["domain"] == data["codomain"]
    domain = codomain if same else DualCatalog.from_dict(data["domain"])
    entries = data["triples"]
    values = _numbers([entry["s"] for entry in entries], "s", 0)
    u = reference_side(entries, "u", codomain.dense_dim)
    v = reference_side(entries, "v", domain.dense_dim)
    attribution = [
        None if key is None else (codomain.label_at(key[0], f"triple {i}: codomain"),
                                  domain.label_at(key[1], f"triple {i}: domain"))
        for i, key in enumerate(data["attribution"])
    ]
    return SpectralData(codomain, domain, values, u, v, attribution)


def reference_side(entries: list, side: str, n: int) -> np.ndarray:
    field, runs, parts = side + "_runs", [], {"re": [], "im": []}
    for i, entry in enumerate(entries):
        given = field in entry
        runs.append(_parse_runs(entry[field], n, f"triple {i}: {field}") if given else [[0, n]])
        total = sum(length for _, length in runs[-1])
        for part, lists in parts.items():
            value = entry[f"{side}_{part}"]
            if not isinstance(value, list) or len(value) != total:
                got = f"length {len(value)}" if isinstance(value, list) else repr(value)
                fill = f", the total length of {field}" if given else ""
                raise ValueError(f"triple {i}: {side}_{part} must be a list of {total} "
                                 f"numbers{fill}, got {got}")
            lists.append(value)
    values = {part: _numbers(lists, f"{side}_{part}", 1) for part, lists in parts.items()}
    out = np.zeros((n, len(entries)), dtype=np.complex128)
    at = 0
    for i, triple in enumerate(runs):
        for start, length in triple:
            out.real[start : start + length, i] = values["re"][at : at + length]
            out.imag[start : start + length, i] = values["im"][at : at + length]
            at += length
    return out


def reference_symbol(data) -> Symbol:
    """``Symbol.from_dict`` block by block: labels, duplicate check and one
    conversion per block."""
    codomain = DualCatalog.from_dict(data["codomain"])
    same = data["domain"] == data["codomain"]
    domain = codomain if same else DualCatalog.from_dict(data["domain"])
    blocks = {}
    for entry in data["blocks"]:
        pi = codomain.label_at(entry["pi_index"], "codomain")
        rho = domain.label_at(entry["rho_index"], "domain")
        if (pi, rho) in blocks:
            raise ValueError(f"duplicate block ({pi.index}, {rho.index})")
        what = f"block ({pi.index}, {rho.index})"
        try:
            re, im = parse_numbers([entry["re"], entry["im"]], 3, what)
        except TypeError:
            parse_numbers(entry["re"], 2, f"{what} re")
            parse_numbers(entry["im"], 2, f"{what} im")
            raise TypeError(f"{what} has re and im of different shapes") from None
        blocks[(pi, rho)] = complex_from_parts(re, im)
    return Symbol(codomain, domain, blocks)


def bits(array: np.ndarray) -> tuple:
    """Shape and raw bits, so that -0.0 differs from +0.0 and NaNs compare."""
    array = np.ascontiguousarray(array)
    return array.shape, array.view(np.uint64).tobytes()


def spectral_outcome(read, payload):
    """The arrays and keys ``read`` gives for a copy of ``payload``, or the
    class and message of what it raised."""
    try:
        data = read(copy.deepcopy(payload))
    except Exception as exc:  # the comparison wants any exception, by class and text
        return type(exc).__name__, str(exc)
    keys = [None if key is None else (key[0].index, key[1].index) for key in data.attribution]
    return bits(data.s), bits(data.u), bits(data.v), keys


def symbol_outcome(read, payload):
    try:
        sym = read(copy.deepcopy(payload))
    except Exception as exc:  # as in spectral_outcome
        return type(exc).__name__, str(exc)
    return [((pi.index, rho.index), bits(block)) for (pi, rho), block in sym.blocks.items()]


def full_layout(entry: dict, side: str, n: int) -> dict:
    """``entry`` with ``side`` written in full, one value per coordinate."""
    re, im = [0.0] * n, [0.0] * n
    coords = [c for start, length in entry[f"{side}_runs"] for c in range(start, start + length)]
    for c, x, y in zip(coords, entry[f"{side}_re"], entry[f"{side}_im"]):
        re[c], im[c] = x, y
    out = {key: value for key, value in entry.items() if key != f"{side}_runs"}
    out[f"{side}_re"], out[f"{side}_im"] = re, im
    return out


@st.composite
def spectral_files(draw):
    """The JSON form of spectral_arrays' data, some sides of some triples
    written in full (the layout before runs) and the rest by runs."""
    codomain, domain, s, u, v = draw(spectral_arrays())
    data = SpectralData(codomain, domain, s, u, v)
    payload = json.loads(json.dumps(data.to_dict()))
    full = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                         min_size=len(s), max_size=len(s)))
    for i, (full_u, full_v) in enumerate(full):
        if full_u:
            payload["triples"][i] = full_layout(payload["triples"][i], "u", codomain.dense_dim)
        if full_v:
            payload["triples"][i] = full_layout(payload["triples"][i], "v", domain.dense_dim)
    return data, payload


@settings(max_examples=60, deadline=None)
@given(files=spectral_files())
def test_spectral_data_reader_matches_per_entry_reference(files):
    data, payload = files
    got = spectral_outcome(SpectralData.from_dict, payload)
    assert got == spectral_outcome(reference_spectral_data, payload)
    # and gives back the data written, bit for bit, in either layout
    assert got == spectral_outcome(lambda _: data, payload)


def edit_run(value):
    def edit(entry, side, n):
        runs = entry.setdefault(f"{side}_runs", [[0, n]])
        runs[0:1] = [value]
    return edit


def edit_value(part, value):
    def edit(entry, side, n):
        values = entry[f"{side}_{part}"]
        values[0:1] = [value]
    return edit


def overlap(entry, side, n):
    runs = entry.setdefault(f"{side}_runs", [[0, n]])
    runs.insert(0, runs[0])
    for part in ("re", "im"):
        values = entry[f"{side}_{part}"]
        values.insert(0, values[0] if values else 0.0)


TRIPLE_EDITS = {
    "start-below-0": edit_run([-1, 1]),
    "zero-length": edit_run([0, 0]),
    "past-n": edit_run([5, 10**6]),
    "huge": edit_run([2**70, 1]),
    "fraction": edit_run([1.5, 1]),
    "boolean-run": edit_run([True, 1]),
    "string-run": edit_run([1, "1"]),
    "flat-pair": edit_run(1),
    "triple": edit_run([0, 1, 2]),
    "overlap": overlap,
    "empty-run": lambda entry, side, n: entry[f"{side}_runs"].insert(0, [0, 0]),
    "unsorted": lambda entry, side, n: entry.get(f"{side}_runs", []).reverse(),
    "runs-number": lambda entry, side, n: entry.__setitem__(f"{side}_runs", 3),
    "runs-dropped": lambda entry, side, n: entry.pop(f"{side}_runs", None),
    "short": lambda entry, side, n: entry[f"{side}_re"].pop() if entry[f"{side}_re"] else None,
    "values-number": lambda entry, side, n: entry.__setitem__(f"{side}_im", 0.5),
    "values-missing": lambda entry, side, n: entry.pop(f"{side}_re"),
    "string-value": edit_value("re", "0.5"),
    "boolean-value": edit_value("im", True),
    "nested-value": edit_value("re", [0.0]),
    "nan-value": edit_value("im", float("nan")),
    "s-string": lambda entry, side, n: entry.__setitem__("s", "0.5"),
}


def diagonal_file():
    """forward of a diagonal SU(2) symbol, each triple on one coordinate."""
    data = forward(assemble(diagonal_symbol(enumerate_dual(SU2(), 2.0), decay=1.0),
                            UNIT_WEIGHT, UNIT_WEIGHT))
    return data, json.loads(json.dumps(data.to_dict()))


@settings(max_examples=100, deadline=None)
@example(files=diagonal_file(), edits=[("empty-run", 1, "u")], key_edit=None, key_at=0)
@given(files=spectral_files(),
       edits=st.lists(st.tuples(st.sampled_from(sorted(TRIPLE_EDITS)), st.integers(0, 10**6),
                                st.sampled_from(["u", "v"])), min_size=1, max_size=3),
       key_edit=st.sampled_from([None, [[99], [0]], [[0], "1"], 5, [[0]]]),
       key_at=st.integers(0, 10**6))
def test_spectral_data_reader_names_the_references_first_fault(files, edits, key_edit, key_at):
    data, payload = files
    triples = payload["triples"]
    n = {"u": data.codomain.dense_dim, "v": data.domain.dense_dim}
    for name, at, side in edits:
        try:  # an edit may not apply after another, as to a list since removed
            TRIPLE_EDITS[name](triples[at % len(triples)], side, n[side])
        except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
            pass
    if key_edit is not None and triples:
        payload["attribution"][key_at % len(triples)] = key_edit
    assert (spectral_outcome(SpectralData.from_dict, payload)
            == spectral_outcome(reference_spectral_data, payload))


def test_spectral_data_file_mixing_runs_and_full_sides():
    # the README's per-triple rule: a side without runs holds one value per
    # coordinate; here triple 1 writes u in full and triple 2 writes v in
    # full, and the -0.0 entries must come back as -0.0
    payload = json.loads((DATA / "su2-mixed-layout-data.json").read_text())
    assert [("u_runs" in t, "v_runs" in t) for t in payload["triples"]] == [
        (True, True), (False, True), (True, False)]
    u = np.zeros((6, 3), dtype=complex)
    v = np.zeros((6, 3), dtype=complex)
    u.real[[0, 1, 3], [0, 1, 2]] = 1.0, 0.6, 0.8
    u.imag[[2, 4, 5], [1, 1, 2]] = -0.8, -0.0, 0.6
    v.real[[0, 2, 4], [0, 1, 2]] = -1.0, 1.0, 1.0
    v.imag[0, 0] = -0.0
    data = SpectralData.from_dict(payload)
    assert bits(data.s) == bits(np.array([3.0, 2.0, 1.0]))
    assert bits(data.u) == bits(u) and bits(data.v) == bits(v)
    assert [(pi.index, rho.index) for pi, rho in data.attribution] == [
        ((0,), (0,)), ((1,), (1,)), ((2,), (2,))]
    assert spectral_outcome(SpectralData.from_dict, payload) == spectral_outcome(
        reference_spectral_data, payload)
    # written back, every side is stored by its runs, and reads the same
    back = json.loads(json.dumps(data.to_dict()))
    assert all("u_runs" in t and "v_runs" in t for t in back["triples"])
    assert spectral_outcome(SpectralData.from_dict, back) == spectral_outcome(
        SpectralData.from_dict, payload)


@st.composite
def symbol_files(draw):
    """The JSON form of a random-support, matching or negated diagonal
    symbol (whose off-diagonal entries are -0.0)."""
    codomain, domain = draw(catalogs), draw(catalogs)
    kind = draw(st.sampled_from(["random", "matching", "negated-diagonal"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "random":
        sym = random_symbol(codomain, domain, draw(st.sampled_from([0.3, 1.0])), seed)
    elif kind == "matching":
        sym = random_matching_symbol(codomain, domain, seed)
    else:
        sym = diagonal_symbol(codomain, decay=0.5).scaled(-1.0)
    return sym, json.loads(json.dumps(sym.to_dict()))


@settings(max_examples=60, deadline=None)
@given(files=symbol_files())
def test_symbol_reader_matches_per_block_reference(files):
    sym, payload = files
    got = symbol_outcome(Symbol.from_dict, payload)
    assert got == symbol_outcome(reference_symbol, payload)
    assert sorted(got) == sorted(symbol_outcome(lambda _: sym, payload))


def edit_entry(name, value):
    return lambda entry: entry.__setitem__(name, value)


def edit_number(part, value):
    def edit(entry):
        entry[part][0][0:1] = [value]
    return edit


BLOCK_EDITS = {
    "label-outside": edit_entry("pi_index", [99]),
    "label-string": edit_entry("rho_index", "1"),
    "label-number": edit_entry("pi_index", 5),
    "label-slots": edit_entry("rho_index", [0, 0, 0]),
    "re-string": edit_entry("re", "abc"),
    "im-null": edit_entry("im", None),
    "im-missing": lambda entry: entry.pop("im"),
    "row-short": lambda entry: entry["re"][0].pop(),
    "rows-short": lambda entry: entry["im"].pop(),
    "row-long": lambda entry: entry["re"][0].append(0.0),
    "transposed": lambda entry: entry.update(re=[list(r) for r in zip(*entry["re"])],
                                             im=[list(r) for r in zip(*entry["im"])]),
    "string-value": edit_number("re", "0.5"),
    "boolean-value": edit_number("im", True),
    "nested-value": edit_number("re", [1.0]),
    "nan-value": edit_number("im", float("nan")),
}


@settings(max_examples=100, deadline=None)
@given(files=symbol_files(),
       edits=st.lists(st.tuples(st.sampled_from(sorted(BLOCK_EDITS)), st.integers(0, 10**6)),
                      min_size=1, max_size=3),
       duplicate=st.one_of(st.none(), st.integers(0, 10**6)))
def test_symbol_reader_names_the_references_first_fault(files, edits, duplicate):
    _, payload = files
    blocks = payload["blocks"]
    for name, at in edits:
        try:  # as in the spectral-data edits
            BLOCK_EDITS[name](blocks[at % len(blocks)])
        except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
            pass
    if duplicate is not None and blocks:
        blocks.append(copy.deepcopy(blocks[duplicate % len(blocks)]))
    assert symbol_outcome(Symbol.from_dict, payload) == symbol_outcome(reference_symbol, payload)


@settings(max_examples=60, deadline=None)
@given(catalog=st.one_of(catalogs, st.just(enumerate_dual(SU2(), 30.0))),
       k=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
def test_label_masses_are_reduceat_of_squares_bit_for_bit(catalog, k, seed):
    # dense noisy vectors; SU(2) at cutoff 30 has labels of dimension 8 to 11,
    # which reduceat sums pairwise rather than in order
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((catalog.dense_dim, k)) + 1j * rng.standard_normal(
        (catalog.dense_dim, k))
    vecs[rng.uniform(size=vecs.shape) < 0.2] = 0.0
    masses, norms = _label_masses(vecs, catalog)
    starts = [catalog.offsets[label][0] for label in catalog.labels]
    want = np.add.reduceat(vecs.real ** 2 + vecs.imag ** 2, starts, axis=0)
    assert bits(masses) == bits(want)
    assert bits(norms) == bits(np.sqrt(want.sum(axis=0)))
