"""Property tests for attribution, the Tikhonov solve and the spectral-data
JSON round trip: random SU(2), torus and product catalogs, codomain and
domain drawn independently, checked against per-label and dense references.
Needs ``hypothesis`` (in the ``test`` extra)."""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from muhankel.duals import (
    PowerLaw,
    Product,
    SU2,
    Torus,
    UNIT_WEIGHT,
    enumerate_dual,
    weight_eval,
)
from muhankel.operators import assemble
from muhankel.recovery import (
    ATTRIBUTION_MASS,
    SpectralData,
    _heaviest,
    _label_masses,
    forward,
    perturb_spectral_data,
    tikhonov_recover,
)
from muhankel.symbols import Symbol, random_matching_symbol

from helpers import spectral_data_file, well_separated


GROUPS = [SU2(), SU2(half_integers=False), Torus(1), Torus(2), Product((SU2(), Torus(1)))]
catalogs = st.builds(
    enumerate_dual, st.sampled_from(GROUPS), st.sampled_from([0.0, 1.0, 2.0, 4.0, 6.0])
)
# Criterion 7's catalogs: SU(2) and torus:1 with dense dimension 15, and a
# product group.
MATCHING_CATALOGS = [
    enumerate_dual(SU2(), 6.0),
    enumerate_dual(Torus(1), 49.0),
    enumerate_dual(Product((SU2(), Torus(1))), 12.0),
]
# In-label mass of a concentrated vector: on both sides of the 0.99 rule,
# never closer to it than rounding could blur.
MASSES = [1.0, 0.999, ATTRIBUTION_MASS + 1e-6, ATTRIBUTION_MASS - 1e-6, 0.98, 0.5]


def unit_vector(rng, catalog, mass=None):
    """Random complex unit vector; with ``mass``, that share of its squared
    mass lies in one random label's slice (all of it for one label)."""
    n = catalog.dense_dim
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if mass is not None:
        inside = np.zeros(n, dtype=bool)
        inside[catalog.slice_of(catalog.labels[rng.integers(len(catalog.labels))])] = True
        if inside.all():
            mass = 1.0
        vec[inside] *= np.sqrt(mass) / np.linalg.norm(vec[inside])
        if mass < 1.0:
            vec[~inside] *= np.sqrt(1.0 - mass) / np.linalg.norm(vec[~inside])
        else:
            vec[~inside] = 0.0
    return vec / np.linalg.norm(vec)


def random_arrays(seed, codomain, domain, masses):
    """s, u (N_out x k) and v (N_in x k) with one triple per entry of
    ``masses``: (u mass, v mass), None meaning an unconcentrated vector;
    singular values descending."""
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.1, 10.0, len(masses)))[::-1]
    u = np.zeros((codomain.dense_dim, len(masses)), dtype=complex)
    v = np.zeros((domain.dense_dim, len(masses)), dtype=complex)
    for i, (mass_u, mass_v) in enumerate(masses):
        u[:, i] = unit_vector(rng, codomain, mass_u)
        v[:, i] = unit_vector(rng, domain, mass_v)
    return s, u, v


def reference_attribution(u, v, codomain, domain):
    """Per-label loop: the first label of largest mass, kept at >= 99%."""
    def best(vec, catalog):
        label, best_mass = None, -1.0
        for candidate in catalog.labels:
            mass = float(np.sum(np.abs(vec[catalog.slice_of(candidate)]) ** 2))
            if mass > best_mass:
                label, best_mass = candidate, mass
        return label, best_mass

    out = []
    for u_col, v_col in zip(u.T, v.T):
        (pi, mass_u), (rho, mass_v) = best(u_col, codomain), best(v_col, domain)
        keep = mass_u >= ATTRIBUTION_MASS and mass_v >= ATTRIBUTION_MASS
        out.append((pi, rho) if keep else None)
    return out


@settings(max_examples=60, deadline=None)
@given(
    codomain=catalogs,
    domain=catalogs,
    masses=st.lists(
        st.tuples(st.sampled_from([None, *MASSES]), st.sampled_from([None, *MASSES])),
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_attribution_matches_per_label_reference(codomain, domain, masses, seed):
    s, u, v = random_arrays(seed, codomain, domain, masses)
    data = SpectralData(codomain, domain, s, u, v)
    assert data.attribution == reference_attribution(u, v, codomain, domain)
    # a file listing the keys passes its own mass rule
    assert SpectralData.from_dict(data.to_dict()).attribution == data.attribution


def reference_masses(vecs, catalog):
    """The two-pass check's numbers per column: np.linalg.norm, then |x|^2
    summed per label by reduceat, the first heaviest label and its mass."""
    norms = np.linalg.norm(vecs, axis=0)
    if vecs.shape[1] == 0:
        return norms, [], np.zeros(0)
    starts = [catalog.offsets[label][0] for label in catalog.labels]
    masses = np.add.reduceat(np.abs(vecs) ** 2, starts, axis=0)
    best = np.argmax(masses, axis=0)
    return norms, [catalog.labels[b] for b in best], masses[best, np.arange(best.size)]


def key_json(key) -> str:
    """A (pi, rho) key or None as the file writes it."""
    return "null" if key is None else f"[{list(key[0].index)}, {list(key[1].index)}]"


def reference_outcome(codomain, domain, s, u, v, attribution):
    """The attribution, or the first fault's message, by the two-pass check
    (the singular values are valid here); ``attribution``, if given, is the
    file's list, each key compared with the rule's in turn."""
    (norm_u, pis, held_u), (norm_v, rhos, held_v) = (
        reference_masses(u, codomain), reference_masses(v, domain))
    bad = ~(np.abs(norm_u - 1.0) <= 1e-12) | ~(np.abs(norm_v - 1.0) <= 1e-12)
    if bad.any():
        return f"triple {int(np.argmax(bad))}: singular vectors must be unit norm"
    found = [(pi, rho) if min(hu, hv) >= ATTRIBUTION_MASS else None
             for pi, rho, hu, hv in zip(pis, rhos, held_u, held_v)]
    if attribution is None:
        return found
    for i, (key, want) in enumerate(zip(attribution, found)):
        if key != want:
            return (f"triple {i}: attribution {key_json(key)} is not the mass rule's "
                    f"{key_json(want)}")
    return attribution


@st.composite
def spectral_arrays(draw):
    """(codomain, domain, s, u, v): forward of a random matching, the same
    perturbed by perturb_spectral_data, or random_arrays' vectors."""
    kind = draw(st.sampled_from(["forward", "perturbed", "arrays"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "arrays":
        codomain, domain = draw(catalogs), draw(catalogs)
        masses = draw(st.lists(
            st.tuples(st.sampled_from([None, *MASSES]), st.sampled_from([None, *MASSES])),
            max_size=8))
        return (codomain, domain, *random_arrays(seed, codomain, domain, masses))
    catalog = draw(st.sampled_from(MATCHING_CATALOGS))
    data = forward(assemble(random_matching_symbol(catalog, catalog, seed),
                            UNIT_WEIGHT, UNIT_WEIGHT))
    if kind == "perturbed":
        delta = draw(st.sampled_from([1e-4, 1e-2]))
        data = perturb_spectral_data(data, delta, np.random.default_rng(seed))
    return data.codomain, data.domain, data.s, data.u, data.v


BOUNDARY = enumerate_dual(SU2(), 2.0)


@settings(max_examples=40, deadline=None)
@given(arrays=spectral_arrays(), which=st.integers(0, 2**16), keys_given=st.booleans())
@example(arrays=(BOUNDARY, BOUNDARY, *random_arrays(
    0, BOUNDARY, BOUNDARY, [(1.0, 1.0), (ATTRIBUTION_MASS - 1e-6, 1.0)])),
    which=0, keys_given=True)  # triple 1 misses the rule by 1e-6
def test_one_pass_check_matches_two_pass_reference(arrays, which, keys_given):
    """The masses and norms from one pass of real^2 + imag^2 give the same
    attribution as np.linalg.norm and |x|^2, heaviest-label masses and norms
    to 1e-14, and the same outcome with each triple's heaviest labels listed
    in the file as its key, with triple j's key listed as null, and with a
    vector scaled by 2 or spread over all labels."""
    codomain, domain, s, u, v = arrays
    data = SpectralData(codomain, domain, s, u, v)
    assert data.attribution == reference_outcome(codomain, domain, s, u, v, None)
    for vecs, catalog in ((u, codomain), (v, domain)):
        masses, norms = _label_masses(vecs, catalog)
        want_norms, want_labels, want_held = reference_masses(vecs, catalog)
        np.testing.assert_allclose(norms, want_norms, rtol=0, atol=1e-14)
        np.testing.assert_allclose(masses.max(axis=0), want_held, rtol=0, atol=1e-14)
        assert _heaviest(masses, catalog.labels) == [
            label if held >= ATTRIBUTION_MASS else None
            for label, held in zip(want_labels, want_held)]
    if not s.size:
        return
    j = which % s.size
    # given keys: each triple's heaviest labels, whatever mass they hold
    keys = list(zip(reference_masses(u, codomain)[1], reference_masses(v, domain)[1]))
    for given in ([keys, keys[:j] + [None] + keys[j + 1:]] if keys_given else [None]):
        for column in (u[:, j], 2 * u[:, j], np.full(u.shape[0], u.shape[0] ** -0.5)):
            faulty = u.copy()
            faulty[:, j] = column
            np.testing.assert_allclose(_label_masses(faulty, codomain)[1],
                                       np.linalg.norm(faulty, axis=0), rtol=0, atol=1e-14)
            try:
                got = (SpectralData(codomain, domain, s, faulty, v) if given is None
                       else SpectralData.from_dict(spectral_data_file(
                           codomain, domain, list(zip(s, faulty.T, v.T)), given))).attribution
            except ValueError as exc:
                got = str(exc)
            assert got == reference_outcome(codomain, domain, s, faulty, v, given)


@settings(max_examples=60, deadline=None)
@given(
    codomain=catalogs,
    domain=catalogs,
    masses=st.lists(
        st.tuples(st.sampled_from(MASSES[:3]), st.sampled_from(MASSES[:3])), max_size=12
    ),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    alpha=st.sampled_from([0.0, 1e-8, 1e-3, 0.5, 10.0]),
    weighted_penalty=st.booleans(),
)
def test_tikhonov_matches_dense_reassembly(
    codomain, domain, masses, seed, exponents, alpha, weighted_penalty
):
    s, u, v = random_arrays(seed, codomain, domain, masses)
    data = SpectralData(codomain, domain, s, u, v)
    mu, nu = PowerLaw(exponents[0]), PowerLaw(exponents[1])
    rec = tikhonov_recover(data, mu, nu, alpha, weighted_penalty)
    dense = np.zeros((codomain.dense_dim, domain.dense_dim), dtype=complex)
    for i in range(len(s)):
        dense += s[i] * np.outer(u[:, i], v[:, i].conj())
    assert set(rec.blocks) == set(data.attribution)
    scale = max((np.max(np.abs(block)) for block in rec.blocks.values()), default=0.0)
    for (pi, rho), block in rec.blocks.items():
        w = weight_eval(mu, pi) * weight_eval(nu, rho)
        t_block = dense[codomain.slice_of(pi), domain.slice_of(rho)]
        if weighted_penalty:
            want = t_block / (w * (1.0 + alpha))
        else:
            want = w * t_block / (w * w + alpha)
        np.testing.assert_allclose(block, want, rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(codomain=catalogs, domain=catalogs, alpha=st.sampled_from([0.0, 1e-3]))
def test_zero_operator_recovers_empty_symbol(codomain, domain, alpha):
    data = forward(assemble(Symbol(codomain, domain, {}), UNIT_WEIGHT, UNIT_WEIGHT))
    assert data.triples == [] and data.u.shape == (codomain.dense_dim, 0)
    assert tikhonov_recover(data, UNIT_WEIGHT, UNIT_WEIGHT, alpha).blocks == {}
    dense = (data.u * data.s) @ data.v.conj().T
    assert not dense.any() and dense.shape == (codomain.dense_dim, domain.dense_dim)


@settings(max_examples=40, deadline=None)
@given(
    codomain=catalogs,
    domain=catalogs,
    masses=st.lists(
        st.tuples(st.sampled_from([None, *MASSES]), st.sampled_from([None, *MASSES])),
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(codomain=enumerate_dual(SU2(), 2.0), domain=enumerate_dual(Torus(1), 1.0),
         masses=[], seed=0)  # k = 0
def test_spectral_data_json_round_trip_is_exact(codomain, domain, masses, seed):
    """``from_dict(to_dict(d))`` through JSON text gives back the same numbers.
    ``s`` comes back bit for bit. ``u`` and ``v`` come back equal entry by
    entry: the parse forms ``re + 1j * im``, which keeps every value but turns
    a negative zero imaginary part into a positive one."""
    data = SpectralData(codomain, domain, *random_arrays(seed, codomain, domain, masses))
    back = SpectralData.from_dict(json.loads(json.dumps(data.to_dict())))
    assert back.s.tobytes() == data.s.tobytes()
    for name in ("u", "v"):
        got, want = getattr(back, name), getattr(data, name)
        assert got.shape == want.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, want)
    assert back.attribution == data.attribution


@settings(max_examples=30, deadline=None)
@given(
    catalog=st.sampled_from(MATCHING_CATALOGS),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)
def test_exact_recovery_round_trip_on_separated_matchings(catalog, seed, exponents):
    """Recovery at alpha = 0 gives back every block of the symbol whose
    forward map it reads, to criterion 7's entry bound."""
    mu, nu = PowerLaw(exponents[0]), PowerLaw(exponents[1])
    sym = random_matching_symbol(catalog, catalog, seed)
    op = assemble(sym, mu, nu)
    assume(well_separated(op))
    rec = tikhonov_recover(forward(op), mu, nu)
    assert set(rec.blocks) == set(sym.blocks)
    for key, block in sym.blocks.items():
        np.testing.assert_allclose(rec.blocks[key], block, rtol=0, atol=1e-9)
