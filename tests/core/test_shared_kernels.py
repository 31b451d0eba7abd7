"""Fast-path decision kernels belong to the compiled program: every
engine built from one :class:`CompiledProgram` runs the same
:class:`DecisionKernel` per base, while registers, inputs and the
call environments that reference them stay per engine.
"""

from repro.core import RuleEngine
from repro.core.compiler import compile_program
from repro.routing.rule_driven import RuleDrivenNafta
from repro.sim import Mesh2D, Network, SimConfig

SOURCE = """
VARIABLE v0 IN 0 TO 7
INPUT sensor IN 0 TO 7
INPUT q(0 TO 3) IN 0 TO 7
ON pick() RETURNS 0 TO 7
  IF v0 > sensor THEN RETURN(v0);
  IF v0 <= sensor THEN RETURN(sensor);
END pick;
ON decide(a IN 0 TO 3) RETURNS 0 TO 7
  IF q(a) < v0 THEN RETURN(v0);
  IF q(a) >= v0 THEN RETURN(q(a));
END decide;
ON bump()
  IF v0 < 7 THEN v0 <- v0 + 1;
  IF v0 = 7 THEN v0 <- 0;
END bump;
"""


def test_network_engines_share_one_kernel_per_base():
    algo = RuleDrivenNafta()
    Network(Mesh2D(8, 8), algo, config=SimConfig())
    compiled = algo.compiled
    assert len(algo.engines) == 64
    assert all(eng.compiled is compiled for eng in algo.engines)
    for name, base in compiled.all_bases.items():
        kernel = compiled.kernel(name)
        assert all(eng._rbr.kernel(base) is kernel for eng in algo.engines)
    # the bases the fault fixpoint ran were resolved on the engines' own
    # dispatch path, and that path holds the same shared kernels
    used = [(name, slot[0]) for eng in algo.engines
            for name, slot in eng._kernels.items()]
    assert used
    assert all(kernel is compiled.kernel(name) for name, kernel in used)


def _result(res):
    return (res.fired_source_rule, res.has_return, res.returned,
            res.writes, res.emissions)


def test_engines_sharing_kernels_stay_isolated():
    """Two engines of one program alternate calls to the same
    parameter-less and parameterised bases, so each reuses its memoised
    call environments between the other's calls.  Each must behave
    exactly like a table engine of its own program and like the AST
    reference."""
    shared = compile_program(SOURCE)
    states = [(2, 1, (0, 5, 7, 1)), (6, 4, (3, 2, 7, 6))]
    sides = []
    for v0, sensor, q in states:
        inputs = {"sensor": sensor, "q": {(i,): x for i, x in enumerate(q)}}
        trio = [RuleEngine(shared),
                RuleEngine(compile_program(SOURCE)),
                RuleEngine(SOURCE, mode="ast")]
        for eng in trio:
            eng.registers.write("v0", v0)
            eng.set_inputs(inputs)
        sides.append(trio)
    a, b = sides[0][0], sides[1][0]
    assert a._rbr.kernel(shared.base("pick")) is \
        b._rbr.kernel(shared.base("pick"))

    calls = [("pick",), ("decide", 0), ("decide", 2), ("pick",),
             ("bump",), ("pick",), ("decide", 3), ("bump",)]
    for _ in range(3):
        for call in calls:
            for trio in sides:
                got, fresh, ast = (_result(eng.call(*call)) for eng in trio)
                assert got == fresh == ast, call
                snaps = [eng.registers.snapshot() for eng in trio]
                assert snaps[0] == snaps[1] == snaps[2], call
    assert a.registers.snapshot() != b.registers.snapshot()
    # every parameter-less call after the first reused a memoised
    # environment of its own engine
    for eng in (a, b):
        assert set(eng._rbr.env_memo("pick")) == {()}
        assert eng._rbr.env_memo("pick")[()].registers is eng.registers
