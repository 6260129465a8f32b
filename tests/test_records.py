"""The contract of the package's records.

Each record is built by position or by keyword, with the same defaults,
and keeps its attribute names; == and repr go by its fields (InclusionData
ignoring graph, BlockBasis comparing by identity); a frozen record refuses
assignment and hashes by its fields, a mutable one can be assigned and is
unhashable.  MoritaWeights and CommutingSquareData check their input,
cached properties work, and the dunders some records add stay.
"""

from pathlib import Path

import pytest

from mfd import core, distortion, loopbasis, markov, morita, tower
from mfd.cli import SpecFile, load_spec
from mfd.errors import InconsistentTraces, NegativeEntry

A4 = str(Path(__file__).resolve().parent.parent / "docs" / "fixtures" / "a4.json")
GRAPH = core.BipartiteGraph(1, 1, [(0, 0)])
ONE = ((1,),)

# (class, frozen, required fields in order with values, defaulted fields
# with their defaults).  Every value is hashable, so that a frozen record
# is too.
RECORDS = [
    (core.InclusionData, True, dict(a=1, b=1, D=ONE, Delta=ONE, graph=GRAPH), {}),
    (core.PerronData, True, dict(d=2.0, alpha=(1.0,), beta=(1.0,), d_squared=4.0), {}),
    (distortion.CycleCheck, False, dict(holds=True),
     dict(witness=None, left=None, right=None)),
    (distortion.GroupoidHom, False, dict(n=2, values=((1, 2), (1, 1))), dict(potential=None)),
    (distortion.ExtremalityReport, False,
     dict(jones_equals_statistical=True, cycle_condition_holds=False), dict(witness=None)),
    (markov.TracePair, True, dict(tr_A=(0.5,), tr_B=(0.25,), d_squared=4.0), {}),
    (markov.TraceMatrices, True, dict(T=ONE, T_tilde=ONE), {}),
    (markov.ExpectationCoefficients, True,
     dict(lambda_markov=(((0, 0), 1.0),), lambda_minimal=((1.0,),)), {}),
    (markov.FiniteDimMarkov, True,
     dict(lambda_A=(0.5,), lambda_B=(0.25,), d_squared=4.0, m_A=(1,), m_B=(2,)), {}),
    (markov.ExtremalInclusionReport, True, dict(e1=True, e2=True, e3=False), {}),
    (morita.MoritaWeights, True, dict(rho=(1, 2)), {}),
    (morita.RealizabilityResult, False, dict(realizable=True),
     dict(eta=(), xi=(), violation=None, failure=None)),
    (tower.TowerLevel, False, dict(level=1, orientation="odd", matrix=None), {}),
    (tower.TowerTrace, False,
     dict(levels=[], iterations=0, residual=0.0, converged=True, limit=[[1.0]]), {}),
    (tower.HomogeneityReport, False,
     dict(h2_row_sums=True, h3_fixed_point=True, h4_standard=True, h5_scalar_jones_trace=True,
          h6_trace_preserved=True, h7_super_extremal=False), dict(row_sums=())),
    (tower.FeasibilityResult, False, dict(status="Feasible"), dict(pi=None, certificate=None)),
    (loopbasis.LoopAlgebraPair, True,
     dict(m0=(1,), Lambda=((2,),), m1=(2,), eta_edges=(("eta", 0, 0),),
          eps_edges=(("eps", 0, 0, 0), ("eps", 0, 0, 1)), lambda0=(0.5,), lambda1=(0.25,),
          d_squared=4.0, n0_loops=(), n1_loops=()), {}),
    (loopbasis.BlockBasis, True, dict(pair=None, blocks=(), size=0), {}),
    (loopbasis.DensitySequence, False,
     dict(levels=[(1.0,)], h_inf=(1.0,), recursion_deviation=0.0), {}),
    (loopbasis.MatrixAlgebraPresentation, False, dict(n=1, generators=[ONE]), {}),
    (loopbasis.CommutingSquareData, True,
     dict(Lambda_top=ONE, Lambda_bot=ONE, V0=ONE, V1=ONE, m_N0=(1,)), {}),
    (SpecFile, False,
     dict(path="s.json", digest="0" * 64, mode="rational", tolerance=None, incl=None,
          given_delta=None, trace_A=None, trace_B=None, m0=None, Lambda=None), {}),
]
# A value differing from the one above, for fields whose record checks it.
OTHER = {"rho": (1, 3), "Lambda_top": ((2,),), "Lambda_bot": ((2,),), "V0": ((2,),),
         "V1": ((2,),), "m_N0": (2,)}
IDS = [cls.__name__ for cls, *_ in RECORDS]


def compared(cls, fields):
    """The values == and hash go by: all fields, InclusionData's but graph."""
    return tuple(v for k, v in fields.items() if not (cls is core.InclusionData and k == "graph"))


@pytest.mark.parametrize("cls, frozen, required, defaults", RECORDS, ids=IDS)
def test_record_is_built_by_position_or_keyword_with_its_defaults(cls, frozen, required,
                                                                  defaults):
    fields = {**required, **defaults}
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword, cls(**required)):
        assert all(getattr(record, k) == v for k, v in fields.items())
    assert repr(by_keyword) == "%s(%s)" % (
        cls.__qualname__, ", ".join(f"{k}={v!r}" for k, v in fields.items()))


@pytest.mark.parametrize("cls, frozen, required, defaults", RECORDS, ids=IDS)
def test_record_compares_by_its_fields(cls, frozen, required, defaults):
    fields = {**required, **defaults}
    record = cls(**fields)
    assert record == record and record != object()
    if cls is loopbasis.BlockBasis:
        assert record != cls(**fields)
        return
    assert record == cls(**fields)
    for name in fields:
        other = cls(**{**fields, name: OTHER.get(name, object())})
        assert (record == other) is (cls is core.InclusionData and name == "graph")


@pytest.mark.parametrize("cls, frozen, required, defaults", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment_and_hash_by_fields(cls, frozen, required, defaults):
    fields = {**required, **defaults}
    record, name = cls(**fields), next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, name, 7)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == fields[name]
        assert hash(record) == (object.__hash__(record) if cls is loopbasis.BlockBasis
                                else hash(compared(cls, fields)))
    else:
        setattr(record, name, 7)
        assert getattr(record, name) == 7
        with pytest.raises(TypeError):
            hash(record)


def test_morita_weights_and_commuting_squares_check_their_input():
    with pytest.raises(NegativeEntry):
        morita.MoritaWeights((1, 0))
    square = loopbasis.CommutingSquareData([[1]], [[1]], [[1]], [[1]], [1])
    assert square == loopbasis.CommutingSquareData(ONE, ONE, ONE, ONE, (1,))
    assert square.V0 == ONE and square.m_N0 == (1,)
    for bad in (dict(V0=[[1, 1]]), dict(V1=[[1], [1]]), dict(m_N0=[1, 1])):
        with pytest.raises(InconsistentTraces):
            loopbasis.CommutingSquareData(**{**dict(Lambda_top=ONE, Lambda_bot=ONE, V0=ONE,
                                                    V1=ONE, m_N0=(1,)), **bad})


def test_cached_properties_are_kept_on_the_record():
    incl = core.validate_inclusion([[1, 1]])
    assert incl.perron is incl.perron and vars(incl)["perron"] is incl.perron
    assert incl.dual.D == ((1,), (1,)) and incl.dual.jones_ints == (1, [(1,), (1,)])
    basis = loopbasis.pimsner_popa_basis(loopbasis.build_loop_algebra([1], [[2]]))
    assert basis.sandwich is basis.sandwich and len(basis) == basis.size
    spec = load_spec(A4)
    assert spec.sigma is spec.sigma and vars(spec)["sigma"] is spec.sigma


def test_records_keep_their_dunders():
    assert not morita.RealizabilityResult(False) and morita.RealizabilityResult(True)
    assert not distortion.CycleCheck(False) and distortion.CycleCheck(True)
    weights = morita.MoritaWeights((1, 2))
    assert len(weights) == 2 and weights[1] == 2
    assert tuple(markov.FiniteDimMarkov((1,), (2,), 3, (1,), (1,))) == ((1,), (2,), 3)
