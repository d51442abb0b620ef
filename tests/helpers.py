"""Instance builders and operations the tests share; the library uses none of them."""

import numpy as np

from muhankel.duals import DualCatalog, Torus, enumerate_dual
from muhankel.operators import assemble
from muhankel.symbols import Symbol, random_matching_symbol


def scaled(sym: Symbol, c: complex) -> Symbol:
    """``sym`` with every block multiplied by ``c``."""
    return Symbol(sym.codomain, sym.domain, {key: c * block for key, block in sym.blocks.items()})


def restrict(catalog: DualCatalog, keep) -> DualCatalog:
    """The sub-catalog of the labels ``keep`` accepts; order and cutoff are kept."""
    return DualCatalog(catalog.group, catalog.cutoff, [l for l in catalog.labels if keep(l)])


def torus_halfline(n_max: int) -> DualCatalog:
    """The 1-torus labels n = 0, ..., n_max."""
    return restrict(enumerate_dual(Torus(1), float(n_max * n_max)), lambda l: l.index[0] >= 0)


def sorted_desc(values) -> np.ndarray:
    return np.sort(np.asarray(values))[::-1]


def well_separated(op, rel_gap=1e-3) -> bool:
    """True when the weighted blocks' nonzero singular values are pairwise
    more than ``rel_gap`` times the largest apart, so that every singular
    triple of the operator lies in one block; False for a zero operator."""
    values = np.sort([s for block in op.weighted.values()
                      for s in np.linalg.svd(block, compute_uv=False)])
    if values.size == 0 or values[-1] == 0:
        return False
    values = values[values > 1e-8 * values[-1]]
    return bool(np.all(np.diff(values) > rel_gap * values[-1]))


def separated_matching(codomain, domain, mu, nu, seed: int) -> Symbol:
    """The first :func:`random_matching_symbol` of the seeds seed, seed + 1000,
    ... whose weighted operator is :func:`well_separated`."""
    while True:
        sym = random_matching_symbol(codomain, domain, seed)
        if well_separated(assemble(sym, mu, nu)):
            return sym
        seed += 1000


def list_layout(payload: dict) -> dict:
    """The spectral-data ``payload`` with every value field written as a hex
    string (as ``SpectralData.to_dict`` writes them) turned, in place, into
    the list of numbers it encodes, every bit kept."""
    for entry in payload["triples"]:
        for name in ("u_re", "u_im", "v_re", "v_im"):
            if isinstance(entry.get(name), str):
                entry[name] = np.frombuffer(bytes.fromhex(entry[name]), "<f8").tolist()
    return payload


def spectral_data_file(codomain, domain, triples, attribution) -> dict:
    """Spectral-data JSON from (s, u, v) tuples, each vector listing every
    coordinate (the layout before runs), with ``attribution``, (pi, rho)
    label pairs or None, as its listed keys. Nothing is checked: a vector
    may be short or not of unit norm, and a key need not be the mass rule's."""
    entries = [{"s": s, "u_re": np.real(u).tolist(), "u_im": np.imag(u).tolist(),
                "v_re": np.real(v).tolist(), "v_im": np.imag(v).tolist()} for s, u, v in triples]
    keys = [None if key is None else [list(key[0].index), list(key[1].index)]
            for key in attribution]
    return {"codomain": codomain.to_dict(), "domain": domain.to_dict(), "triples": entries,
            "attribution": keys}
