"""Table-based rule interpreter (software model of the RBR-kernel).

Executes a :class:`~repro.core.compiler.compile.CompiledRuleBase` the
way the hardware does (paper Figure 5): premise processing computes the
feature values (direct signal encodings and FCFB bits), their
concatenation indexes the completely-filled rule table, and the selected
entry drives conclusion processing.

Two execution strategies share this class:

* ``fastpath=True`` (default) runs each base through the compiled
  program's shared :class:`~repro.core.compiler.fastpath.DecisionKernel`:
  premise features compiled to extractor closures, mixed-radix strides
  prebaked, table entries memoised on the feature-code tuple, and
  conclusions compiled to command closures.  No AST traversal on the
  hot path.
* ``fastpath=False`` keeps the original interpreted pipeline that walks
  the premise and conclusion ASTs through :func:`eval_expr` on every
  invocation.  It is retained as the seed reference that the throughput
  benchmark measures speedups against, and as a third point of the
  table/AST differential tests.
"""

from __future__ import annotations

from ...obs import events as trace_ev
from ...obs.tracer import NULL_TRACER
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..compiler.atoms import BitFeature, DirectFeature
from ..compiler.compile import CompiledProgram, CompiledRuleBase
from ..compiler.fastpath import DecisionKernel
from ..compiler.tablegen import NO_RULE
from .evaluator import Env, eval_expr, to_bool
from .execution import InvocationResult, _Effects, apply_effects, gather_effects


class RbrInterpreter:
    #: observability hooks (see repro.obs): the tracer defaults to the
    #: shared no-op, so the untraced cost is one attribute check per
    #: invocation; trace_node tags emissions with the router the engine
    #: belongs to
    tracer = NULL_TRACER
    trace_node = -1

    def __init__(self, compiled: CompiledProgram, fastpath: bool = True):
        self.compiled = compiled
        self.analyzed = compiled.analyzed
        self.fastpath = fastpath
        # this interpreter's call environments per base (see
        # DecisionKernel.invoke); the kernels themselves are shared
        self._env_memos: dict[str, dict[tuple[Value, ...], Env]] = {}

    def kernel(self, base: CompiledRuleBase) -> DecisionKernel:
        """The compiled decision kernel for one base: one per compiled
        program, shared by every interpreter that executes it."""
        return self.compiled.kernel(base.name)

    def env_memo(self, name: str) -> dict[tuple[Value, ...], Env]:
        """This interpreter's call-environment memo for one base."""
        memo = self._env_memos.get(name)
        if memo is None:
            memo = self._env_memos[name] = {}
        return memo

    def compute_index(self, base: CompiledRuleBase, env: Env) -> int:
        """Premise processing: one mixed-radix index from the features."""
        if self.fastpath:
            return self.kernel(base).index(env)
        codes: list[int] = []
        for feat in base.analysis.features:
            if isinstance(feat, DirectFeature):
                value = eval_expr(feat.signal, env)
                codes.append(feat.domain.encode(value))
            else:
                assert isinstance(feat, BitFeature)
                codes.append(int(to_bool(eval_expr(feat.atom, env))))
        return base.analysis.index_of(codes)

    def invoke(self, base: CompiledRuleBase, args: tuple[Value, ...],
               env: Env) -> InvocationResult:
        if self.fastpath:
            res = self.kernel(base).invoke(args, env, self._subbase_runner,
                                           self.env_memo(base.name))
            tr = self.tracer
            if tr.enabled:
                tr.emit(trace_ev.RULE_INVOKE, node=self.trace_node,
                        base=base.name, rule=res.fired_source_rule,
                        writes=len(res.writes),
                        emissions=len(res.emissions))
            return res
        if base.table is None:
            raise EvalError(f"rule base {base.name!r} was compiled without "
                            f"a materialized table; recompile with "
                            f"materialize=True to execute it")
        if len(args) != len(base.params):
            raise EvalError(f"rule base {base.name!r} expects "
                            f"{len(base.params)} arguments, got {len(args)}")
        bindings = {}
        for (name, dom), value in zip(base.params, args):
            dom.check(value, f"argument {name} of {base.name}")
            bindings[name] = value
        call_env = env.bind(bindings)

        idx = self.compute_index(base, call_env)
        entry = int(base.table[idx])
        result = InvocationResult(base=base.name, fired_source_rule=None)
        tr = self.tracer
        if entry == NO_RULE:
            if tr.enabled:
                tr.emit(trace_ev.RULE_INVOKE, node=self.trace_node,
                        base=base.name, rule=None, writes=0, emissions=0)
            return result
        ground = base.ground_rules[entry]
        result.fired_source_rule = ground.source_index
        result.witness = ground.witness
        effects = _Effects()
        gather_effects(ground.commands, call_env, effects,
                       self._subbase_runner(call_env))
        apply_effects(effects, call_env, result, tracer=tr)
        if tr.enabled:
            tr.emit(trace_ev.RULE_INVOKE, node=self.trace_node,
                    base=base.name, rule=result.fired_source_rule,
                    writes=len(result.writes),
                    emissions=len(result.emissions))
        return result

    # -- subbases ------------------------------------------------------------

    def _subbase_runner(self, env: Env):
        def run(name: str, args: tuple[Value, ...], effects: _Effects) -> None:
            sub = self.compiled.subbases.get(name)
            if sub is None:
                raise EvalError(f"unknown subbase {name!r}")
            res = self.invoke(sub, args, env)
            effects.writes.extend(res.writes)
            effects.emissions.extend(res.emissions)
        return run

    def subbase_caller(self, env: Env):
        """Expression-position subbase calls (pure lookups)."""
        def call(name: str, args: tuple[Value, ...]) -> Value:
            sub = self.compiled.subbases.get(name)
            if sub is None:
                raise EvalError(f"unknown subbase {name!r}")
            res = self.invoke(sub, args, env)
            if res.writes or res.emissions:
                raise EvalError(f"subbase {name!r} used in an expression "
                                f"must only RETURN")
            if not res.has_return:
                raise EvalError(f"subbase {name!r} returned no value for "
                                f"arguments {args!r}")
            return res.returned  # type: ignore[return-value]
        return call
