"""The moduli of the residue walks (`chains._residue_primes`, scanned by
`chains._moduli_below`): for the (bits, k) that the walks and bridge
tables ask for, and over a grid of bits 16-63 and k 1-60, k moduli in
[2**(bits - 1), 2**bits), descending and pairwise coprime; the moduli of
real walks keep their int64 sums exact and cover their bound; `_crt`
rebuilds every signed x with |x| < M/2 from its residues; and a set
larger than the scan can fill raises ValueError."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from walklab import bridges, chains
from walklab.doob import doob_chain
from walklab.models import ModelSpec, build_model
from walklab.series import spectral_radius

# (bits, k) asked for by u_n, f_n, the Doob pair walk and the 31-bit
# bridge tables on the benchmark's jobs and on this suite's chains
USED = [(bits, k) for bits, ks in {
    16: (19, 48), 22: (77,), 31: (1, 2, 3, 4, 6, 7, 11),
    55: (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 17, 90),
    56: (1, 2, 3, 4, 5, 6, 7),
    57: (1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13, 14, 57), 63: (1,)}.items()
    for k in ks]


def assert_moduli(moduli, bits, k):
    assert len(moduli) == k
    assert all(a > b for a, b in zip(moduli, moduli[1:]))
    assert all(2 ** (bits - 1) <= m < 2 ** bits for m in moduli)
    assert all(math.gcd(a, b) == 1
               for a, b in itertools.combinations(moduli, 2))


@pytest.mark.parametrize("bits,k", USED)
def test_moduli_the_walks_use(bits, k):
    assert_moduli(chains._moduli_below(bits, k), bits, k)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(16, 63), k=st.integers(1, 60))
def test_moduli_over_a_grid(bits, k):
    assert_moduli(chains._moduli_below(bits, k), bits, k)


def test_moduli_of_real_walks(monkeypatch):
    """Every call of `_residue_primes` made by root walks, taboo walks,
    a ball walk, the Doob pair walk and a bridge table returns moduli
    with W**r (m - 1) < 2**63 whose product exceeds 2 * bound."""
    calls, real = [], chains._residue_primes

    def spy(W, bound, cap=63):
        moduli = real(W, bound, cap)
        calls.append((W, bound, cap, moduli))
        return moduli

    for module in (chains, bridges):
        monkeypatch.setattr(module, "_residue_primes", spy)
    model = build_model(ModelSpec("grandparent", b=2))
    chain = model.collapse(60)
    chain.root_walk(60)
    chain.root_walk(60, -2, taboo=True)
    build_model(ModelSpec("diestel_leader", q=2, r=3)).collapse(40) \
        .root_walk(40)
    build_model(ModelSpec("tree", b=3)).enumerate_ball(4).root_walk(9)
    doob_chain(model.collapse(12), spectral_radius(model)) \
        .return_series_exact(12)
    bridges._occupation_numerators(model.collapse(20), 20)
    assert len(calls) == 6 and calls[-1][2] == 31
    for W, bound, cap, moduli in calls:
        r = chains._lazy_steps(W)
        assert all(m < 2 ** cap and W ** r * (m - 1) < 2 ** 63
                   for m in moduli)
        assert math.prod(moduli) > 2 * bound
        assert_moduli(moduli, min(cap, 63 - r * W.bit_length()),
                      len(moduli))


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(16, 63), k=st.integers(1, 8), data=st.data())
def test_crt_round_trips_signed_integers(bits, k, data):
    moduli = chains._moduli_below(bits, k)
    M = math.prod(moduli)
    xs = data.draw(st.lists(st.integers(-((M - 1) // 2), (M - 1) // 2),
                            min_size=1, max_size=5))
    # residues as % leaves them, and signed as np.fmod leaves them
    floor = [[x % m for m in moduli] for x in xs]
    signed = [[-(-x % m) if x < 0 else x % m for m in moduli] for x in xs]
    assert chains._crt(floor, moduli) == xs
    assert chains._crt(signed, moduli) == xs
    assert chains._crt([floor], moduli) == [xs]


def test_too_many_moduli_raise():
    # no pairwise-coprime set of 4000 lies in [2**15, 2**16)
    with pytest.raises(ValueError, match="fewer than 4000 pairwise-coprime "
                                         "moduli of 16 bits"):
        chains._moduli_below(16, 4000)
