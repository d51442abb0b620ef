"""Operations the tests share that the library itself does not use."""

import numpy as np

from muhankel.duals import DualCatalog
from muhankel.symbols import Symbol


def scaled(sym: Symbol, c: complex) -> Symbol:
    """``sym`` with every block multiplied by ``c``."""
    return Symbol(sym.codomain, sym.domain, {key: c * block for key, block in sym.blocks.items()})


def restrict(catalog: DualCatalog, keep) -> DualCatalog:
    """The sub-catalog of the labels ``keep`` accepts; order and cutoff are kept."""
    return DualCatalog(catalog.group, catalog.cutoff, [l for l in catalog.labels if keep(l)])


def list_layout(payload: dict) -> dict:
    """The spectral-data ``payload`` with every value field written as a hex
    string (as ``SpectralData.to_dict`` writes them) turned, in place, into
    the list of numbers it encodes, every bit kept."""
    for entry in payload["triples"]:
        for name in ("u_re", "u_im", "v_re", "v_im"):
            if isinstance(entry.get(name), str):
                entry[name] = np.frombuffer(bytes.fromhex(entry[name]), "<f8").tolist()
    return payload
