"""Scale equivariance through ``main``: the golden inputs with every symbol
entry multiplied by c = 10^k, k drawn from [-300, 300].

* ``spectrum``'s singular values, operator norm, Schatten norms and block
  singular values scale by c, to 1e-12 of the largest, and no verdict
  changes;
* ``index``'s fields do not change, the winding number included (on the
  full-rank input, whose formula refusal names a determinant, the
  numerical ones);
* ``recover --true-symbol`` on ``forward``'s data gives back c times the
  symbol;
* every command exits 0 and writes JSON without Infinity or NaN.
  ``stability`` is held to this rule only: its noise on the singular values
  is absolute, so its errors do not scale with c.

Needs ``hypothesis`` (in the ``test`` extra)."""

import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from muhankel.cli import main
from muhankel.duals import PowerLaw
from muhankel.operators import assemble
from muhankel.recovery import forward
from muhankel.symbols import Symbol

from helpers import scaled

GOLDEN = Path(__file__).parent / "golden"
CASES = ["spectrum", "index-non-square", "index-winding", "index-dense", "stability"]


def refuse(token):
    raise ValueError(f"{token} is not JSON")


def read_symbol(path: Path) -> Symbol:
    return Symbol.from_dict(json.loads(path.read_text()))


def write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv: list, out: Path) -> dict:
    """The JSON outputs of ``main(argv)`` run into ``out``, after checking
    that it exits 0 and that every file written is JSON, with no Infinity
    or NaN."""
    assert main([*argv, "--out-dir", str(out)]) == 0
    return {path.name: json.loads(path.read_text(), parse_constant=refuse)
            for path in out.glob("*.json")}


def golden_run(case: str, c: float, tmp: Path) -> dict:
    """The golden case ``case`` with each symbol input scaled by ``c``."""
    argv = json.loads((GOLDEN / case / "argv.json").read_text())
    tmp.mkdir(exist_ok=True)
    at = argv.index("--out-dir")
    del argv[at : at + 2]
    for i, arg in enumerate(argv):
        if arg.startswith("inputs/"):
            sym = scaled(read_symbol(GOLDEN / arg), c)
            argv[i] = write(tmp / f"{case}-{Path(arg).name}", sym.to_dict())
    return run(argv, tmp / f"{case}-out")


def assert_scaled(got, want, c):
    """``got`` is ``c`` times ``want``, to 1e-12 of the largest magnitude."""
    want = np.asarray(want, dtype=float)
    scale = np.max(np.abs(want), initial=0.0)
    np.testing.assert_allclose(got, c * want, rtol=0, atol=1e-12 * c * scale)


@settings(max_examples=10, deadline=None)
@example(k=160)  # the stability error was refused as nan from 1e160 on
@example(k=300)
@example(k=-300)
@given(k=st.integers(-300, 300))
def test_commands_are_equivariant_under_scaling(tmp_path_factory, k):
    c = 10.0 ** k
    tmp = tmp_path_factory.mktemp("scaled")
    ref, got = ({case: golden_run(case, factor, tmp / name) for case in CASES}
                for factor, name in ((1.0, "ref"), (c, "got")))

    spectrum, want = got["spectrum"]["spectrum.json"], ref["spectrum"]["spectrum.json"]
    for key in ("singular_values", "operator_norm"):
        assert_scaled(spectrum[key], want[key], c)
    assert spectrum["schatten"].keys() == want["schatten"].keys()
    assert_scaled(list(spectrum["schatten"].values()), list(want["schatten"].values()), c)
    for block, block_want in zip(spectrum["per_block"], want["per_block"], strict=True):
        assert (block["pi_index"], block["rho_index"]) == (block_want["pi_index"],
                                                           block_want["rho_index"])
        assert_scaled(block["singular_values"], block_want["singular_values"], c)
    assert ([(v["name"], v["satisfied"]) for v in spectrum["criteria"]]
            == [(v["name"], v["satisfied"]) for v in want["criteria"]])

    for case in ("index-non-square", "index-winding"):
        assert got[case]["index.json"] == ref[case]["index.json"]
    # the formula's refusal there names a block determinant, which scales
    dense, dense_want = got["index-dense"]["index.json"], ref["index-dense"]["index.json"]
    assert {key: dense[key] for key in dense if key.startswith("numerical")} == {
        key: dense_want[key] for key in dense_want if key.startswith("numerical")}

    mu, nu = PowerLaw(0.5), PowerLaw(-0.5)
    truth = scaled(read_symbol(GOLDEN / "inputs" / "su2-matching.json"), c)
    data = forward(assemble(truth, mu, nu))
    run(["recover", "--data", write(tmp / "data.json", data.to_dict()), "--mu", "0.5",
         "--nu", "-0.5", "--true-symbol", write(tmp / "truth.json", truth.to_dict())],
        tmp / "recover-out")
    blocks = read_symbol(tmp / "recover-out" / "recovered_symbol.json").blocks
    assert blocks.keys() == truth.blocks.keys()
    top = max(np.max(np.abs(block)) for block in truth.blocks.values())
    for key, block in truth.blocks.items():
        np.testing.assert_allclose(blocks[key], block, rtol=0, atol=1e-9 * top)
