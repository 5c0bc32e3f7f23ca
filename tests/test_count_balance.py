"""The count balance N_{j,i,1/q} = q N_{i,j,q} as one kernel,
`masstransport.unbalanced_counts`, read by the neighbor check, the schema
check and the pairwise-cancellation flag; and the mass checks of the
induced chain, exact in exact mode."""

from fractions import Fraction

import pytest

from walklab.masstransport import check_neighbor_mtp, unbalanced_counts
from walklab.models import LevelProfile
from walklab.quasi import (OrbitSchema, SchemaError, a_matrix, induced_chain,
                           parity_schema, perron, schema_from_profile,
                           stationary_and_mean_checks)

HALF, TWO = Fraction(1, 2), Fraction(2)


def test_kernel_returns_the_unbalanced_keys_in_order():
    counts = {(1, 2, TWO): 1, (2, 1, HALF): 2, (1, 1, TWO): 1,
              (1, 1, HALF): 3, (2, 2, Fraction(1)): 4}
    assert unbalanced_counts(counts) == [(1, 1, TWO), (1, 1, HALF)]
    # a missing mirror counts 0, so a key of count 0 without one balances
    assert unbalanced_counts({(1, 2, TWO): 1}) == [(1, 2, TWO)]
    assert unbalanced_counts({(1, 2, TWO): 0}) == []


def test_three_readers_agree_on_one_fault():
    """One orbit with t_2 = 1, t_1/2 = 3: the neighbor check, the schema
    check and the cancellation flag all fail, at the kernel's keys."""
    counts = {(1, 1, TWO): 1, (1, 1, HALF): 3}
    rep = check_neighbor_mtp(LevelProfile(
        degree=4, entries=[(TWO, 1), (HALF, 3)], base=TWO, t0_lattice=1))
    assert not rep.passed and rep.details == []
    assert [q for q, _ in rep.witnesses] == [TWO, HALF]
    schema = OrbitSchema(L=1, degrees=[4], counts=counts)
    with pytest.raises(SchemaError, match=r"count balance fails at "
                       r"\(i=1, j=1, q=2\): N=1 but N_mirror/q = 3/2"):
        schema.validate()
    checks = stationary_and_mean_checks(schema, perron(a_matrix(schema)))
    assert checks["pairwise_cancellation_exact"] is False


def test_negative_count_is_named():
    schema = OrbitSchema(L=1, degrees=[1], counts={
        (1, 1, HALF): -1, (1, 1, TWO): 2})
    with pytest.raises(SchemaError, match="negative count"):
        schema.validate()


def exact_chain(model):
    schema = schema_from_profile(model.level_profile())
    return induced_chain(schema, perron(a_matrix(schema)), exact=True)


def test_exact_chain_mass_is_compared_exactly(fixed_end2):
    """A law off by 10**-20 floats to mass 1, and still fails."""
    chain = exact_chain(fixed_end2)
    chain.trans[0][0] += Fraction(1, 10 ** 20)
    assert float(sum(chain.trans[0])) == 1.0
    with pytest.raises(SchemaError, match="row 0 mass"):
        chain.validate()
    chain = exact_chain(fixed_end2)
    chain.initial[0] -= Fraction(1, 10 ** 20)
    with pytest.raises(SchemaError, match="initial law mass"):
        chain.validate()


def test_float_chain_off_by_1e_9_fails(grandparent2):
    schema = schema_from_profile(grandparent2.level_profile())
    chain = induced_chain(schema, perron(a_matrix(schema)))
    chain.trans[1][0] += 1e-9
    with pytest.raises(SchemaError, match="row 1 mass"):
        chain.validate()


@pytest.mark.parametrize("exact", [True, False])
def test_induced_chains_of_both_modes_validate(fixed_end2, grandparent2,
                                               exact):
    fixed_end = fixed_end2.level_profile()
    for schema in (schema_from_profile(fixed_end), parity_schema(fixed_end),
                   schema_from_profile(grandparent2.level_profile())):
        chain = induced_chain(schema, perron(a_matrix(schema)), exact=exact)
        assert chain.exact is exact
        chain.validate()
