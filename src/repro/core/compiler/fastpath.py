"""Compiled fast-path decision kernel (software mirror of Figure 5).

The hardware pipeline makes a routing decision in one pass: premise
processing extracts the feature codes, their concatenation indexes the
completely-filled rule table, and conclusion processing drives the
selected entry's actions.  The interpreted software model used to
re-walk the premise ASTs through :func:`eval_expr` on every invocation;
this module lowers each rule base **once per compiled program** into
flat closures so the hot path performs no AST traversal at all:

* every :class:`DirectFeature` signal and :class:`BitFeature` atom is
  compiled to an *extractor* closure ``env -> code``;
* the mixed-radix strides of the feature index are prebaked, so
  ``index = sum(stride[i] * extract[i](env))``;
* a per-base memo maps the (small, finite) feature-code tuple straight
  to the table entry, skipping the index arithmetic and the numpy
  lookup on repeats;
* ground-rule conclusions are compiled to command closures; conclusions
  that are effect-free constants (``RETURN(east)``) are resolved at
  compile time and replayed without any evaluation.

The closures reproduce :func:`repro.core.interpreter.evaluator.eval_expr`
semantics bit-for-bit — evaluation order, coercions and error behaviour
included — which the table/AST equivalence suites verify.
"""

from __future__ import annotations

from typing import Callable

from ..dsl import nodes as N
from ..dsl.domains import Value
from ..dsl.errors import EvalError
from ..dsl.semantics import AnalyzedProgram
from ..interpreter.evaluator import Env, sort_values, to_bool
from ..interpreter.execution import Emission, InvocationResult, _Effects, \
    apply_effects
from .atoms import BitFeature, DirectFeature
from .tablegen import NO_RULE

ExprFn = Callable[[Env], Value]
CommandFn = Callable  # (env, effects, subbase_runner) -> None

#: memoisation is skipped for index spaces larger than this (the memo
#: key space equals the table entry count, so this bounds memory)
MAX_MEMO_ENTRIES = 1 << 16


def _raiser(msg: str, line: int = 0) -> ExprFn:
    def fail(env: Env) -> Value:
        raise EvalError(msg, line)
    return fail


def _param_or_raise(name: str, msg: str, line: int) -> ExprFn:
    def read(env: Env) -> Value:
        v = env.params.get(name)
        if v is not None:
            return v
        raise EvalError(msg, line)
    return read


def _tupler(fns: tuple[ExprFn, ...]):
    """Specialized arg-tuple builders for the common small arities."""
    if len(fns) == 0:
        empty = ()
        return lambda env: empty
    if len(fns) == 1:
        f0, = fns
        return lambda env: (f0(env),)
    if len(fns) == 2:
        f0, f1 = fns
        return lambda env: (f0(env), f1(env))
    if len(fns) == 3:
        f0, f1, f2 = fns
        return lambda env: (f0(env), f1(env), f2(env))
    if len(fns) <= 8:
        padded = fns + (None,) * (8 - len(fns))
        f0, f1, f2, f3, f4, f5, f6, f7 = padded
        if len(fns) == 4:
            return lambda env: (f0(env), f1(env), f2(env), f3(env))
        if len(fns) == 5:
            return lambda env: (f0(env), f1(env), f2(env), f3(env), f4(env))
        if len(fns) == 6:
            return lambda env: (f0(env), f1(env), f2(env), f3(env), f4(env),
                                f5(env))
        if len(fns) == 7:
            return lambda env: (f0(env), f1(env), f2(env), f3(env), f4(env),
                                f5(env), f6(env))
        return lambda env: (f0(env), f1(env), f2(env), f3(env), f4(env),
                            f5(env), f6(env), f7(env))
    return lambda env: tuple(f(env) for f in fns)


# ---------------------------------------------------------------------------
# expression compilation
# ---------------------------------------------------------------------------

def compile_expr(expr: N.Expr, analyzed: AnalyzedProgram,
                 bound: frozenset[str]) -> ExprFn:
    """Lower one expression to a closure over the runtime environment.

    ``bound`` is the set of names resolved through ``env.params`` at
    runtime (rule-base parameters plus enclosing quantifier variables);
    every other name is resolved against the analyzed program *now*.
    """
    a = analyzed
    if isinstance(expr, N.Num):
        value = expr.value
        return lambda env: value
    if isinstance(expr, N.Name):
        name = expr.ident
        if name in bound:
            return lambda env: env.params[name]
        # not statically bound, but ``env.params`` can still carry the
        # name at runtime (outer-base params leak into subbase calls),
        # and eval_expr resolves params before everything else — so
        # every closure below keeps that check.  Values are never None,
        # which makes dict.get a valid presence probe.
        if name in a.symbol_owner:
            return lambda env: env.params.get(name, name)
        if name in a.constants:
            value = a.constants[name]
            return lambda env: env.params.get(name, value)
        if name in a.variables:
            if a.variables[name].is_array:
                return _param_or_raise(
                    name, f"array register {name!r} used without indices",
                    expr.line)
            def read_register(env: Env) -> Value:
                v = env.params.get(name)
                if v is not None:
                    return v
                return env.registers.read(name)
            return read_register
        if name in a.inputs:
            if a.inputs[name].index_domains:
                return _param_or_raise(
                    name, f"indexed input {name!r} used without indices",
                    expr.line)
            def read_input(env: Env) -> Value:
                v = env.params.get(name)
                if v is not None:
                    return v
                m = env.inputs_map
                if m is None:
                    return env.inputs(name, ())
                w = m.get(name)
                if w is None:
                    raise EvalError(f"no value supplied for input {name!r}")
                if isinstance(w, dict):
                    raise EvalError(f"input {name!r} is scalar but an "
                                    f"indexed value table was supplied")
                return w
            return read_input
        if name in a.types:
            value = frozenset(a.types[name].values())
            return lambda env: env.params.get(name, value)
        return _param_or_raise(name, f"unknown name {name!r}", expr.line)
    if isinstance(expr, N.Index):
        args = _tupler(tuple(compile_expr(arg, a, bound)
                             for arg in expr.args))
        name = expr.ident
        line = expr.line
        if name in a.variables:
            return lambda env: env.registers.read(name, args(env))
        if name in a.inputs:
            def read_indexed_input(env: Env) -> Value:
                idx = args(env)
                m = env.inputs_map
                if m is None:
                    return env.inputs(name, idx)
                w = m.get(name)
                if w is None:
                    raise EvalError(f"no value supplied for input {name!r}")
                if not isinstance(w, dict):
                    raise EvalError(f"input {name!r} is indexed but a "
                                    f"scalar value was supplied")
                v = w.get(idx)
                if v is None:
                    raise EvalError(f"input {name!r} has no value at index "
                                    f"{idx!r}")
                return v
            return read_indexed_input
        if name in a.functions:
            def call_function(env: Env) -> Value:
                impl = env.functions.get(name)
                if impl is None:
                    raise EvalError(f"no implementation registered for "
                                    f"function {name!r}", line)
                return impl(*args(env))
            return call_function
        if name in a.subbases:
            def call_subbase(env: Env) -> Value:
                if env.call_subbase is None:
                    raise EvalError(f"subbase {name!r} called but no subbase "
                                    f"executor is attached", line)
                return env.call_subbase(name, args(env))
            return call_subbase
        return _raiser(f"unknown indexed name {name!r}", line)
    if isinstance(expr, N.SetLit):
        items = tuple(compile_expr(i, a, bound) for i in expr.items)
        # fold only literal numbers: a symbol or constant name could be
        # shadowed at runtime by a parameter leaked from an outer base
        # (eval_expr consults env.params first), so those stay dynamic
        if all(isinstance(i, N.Num) for i in expr.items):
            value = frozenset(i.value for i in expr.items)
            return lambda env: value
        return lambda env: frozenset(f(env) for f in items)
    if isinstance(expr, N.UnOp):
        operand = compile_expr(expr.operand, a, bound)
        line = expr.line
        def negate(env: Env) -> Value:
            v = operand(env)
            if not isinstance(v, int):
                raise EvalError("unary minus on non-integer", line)
            return -v
        return negate
    if isinstance(expr, N.BinOp):
        return _compile_binop(expr, a, bound)
    if isinstance(expr, N.Compare):
        return _compile_compare(expr, a, bound)
    if isinstance(expr, N.InSet):
        item = compile_expr(expr.item, a, bound)
        coll = compile_expr(expr.collection, a, bound)
        line = expr.line
        def member(env: Env) -> Value:
            iv = item(env)
            cv = coll(env)
            if not isinstance(cv, frozenset):
                raise EvalError("IN needs a set on the right", line)
            return iv in cv
        return member
    if isinstance(expr, N.And):
        terms = tuple(compile_expr(t, a, bound) for t in expr.terms)
        line = expr.line
        if len(terms) == 2:
            t0, t1 = terms
            return lambda env: (to_bool(t0(env), line)
                                and to_bool(t1(env), line))
        return lambda env: all(to_bool(t(env), line) for t in terms)
    if isinstance(expr, N.Or):
        terms = tuple(compile_expr(t, a, bound) for t in expr.terms)
        line = expr.line
        if len(terms) == 2:
            t0, t1 = terms
            return lambda env: (to_bool(t0(env), line)
                                or to_bool(t1(env), line))
        return lambda env: any(to_bool(t(env), line) for t in terms)
    if isinstance(expr, N.Not):
        operand = compile_expr(expr.operand, a, bound)
        line = expr.line
        return lambda env: not to_bool(operand(env), line)
    if isinstance(expr, N.Quant):
        values = compile_iteration(expr.collection, a, bound)
        var = expr.var
        body = compile_expr(expr.body, a, bound | {var})
        line = expr.line
        if expr.kind == "EXISTS":
            def exists(env: Env) -> Value:
                for v in values(env):
                    if to_bool(body(env.bind({var: v})), line):
                        return True
                return False
            return exists
        def forall(env: Env) -> Value:
            for v in values(env):
                if not to_bool(body(env.bind({var: v})), line):
                    return False
            return True
        return forall
    return _raiser(f"unhandled expression {expr!r}",
                   getattr(expr, "line", 0))


def _compile_binop(expr: N.BinOp, a: AnalyzedProgram,
                   bound: frozenset[str]) -> ExprFn:
    left = compile_expr(expr.left, a, bound)
    right = compile_expr(expr.right, a, bound)
    op = expr.op
    line = expr.line
    if op in ("UNION", "INTER", "DIFF"):
        def setop(env: Env) -> Value:
            lv = left(env)
            rv = right(env)
            if not (isinstance(lv, frozenset) and isinstance(rv, frozenset)):
                raise EvalError(f"{op} needs set operands", line)
            if op == "UNION":
                return lv | rv
            if op == "INTER":
                return lv & rv
            return lv - rv
        return setop
    def _ints(env: Env) -> tuple[int, int]:
        lv = left(env)
        rv = right(env)
        if not (isinstance(lv, int) and isinstance(rv, int)):
            raise EvalError(f"operator {op!r} needs integers, got "
                            f"{lv!r} and {rv!r}", line)
        return lv, rv
    if op == "+":
        def add(env: Env) -> Value:
            lv, rv = _ints(env)
            return lv + rv
        return add
    if op == "-":
        def sub(env: Env) -> Value:
            lv, rv = _ints(env)
            return lv - rv
        return sub
    if op == "*":
        def mul(env: Env) -> Value:
            lv, rv = _ints(env)
            return lv * rv
        return mul
    if op == "MOD":
        def mod(env: Env) -> Value:
            lv, rv = _ints(env)
            if rv == 0:
                raise EvalError("MOD by zero", line)
            return lv % rv
        return mod
    return _raiser(f"unknown operator {op!r}", line)


def _norm_bool(v: Value) -> Value:
    return "true" if v is True else "false" if v is False else v


def _compile_compare(expr: N.Compare, a: AnalyzedProgram,
                     bound: frozenset[str]) -> ExprFn:
    left = compile_expr(expr.left, a, bound)
    right = compile_expr(expr.right, a, bound)
    op = expr.op
    line = expr.line
    if op == "=":
        def eq(env: Env) -> Value:
            lv = left(env)
            rv = right(env)
            if type(lv) is bool or type(rv) is bool:
                return _norm_bool(lv) == _norm_bool(rv)
            return lv == rv
        return eq
    if op == "/=":
        def ne(env: Env) -> Value:
            lv = left(env)
            rv = right(env)
            if type(lv) is bool or type(rv) is bool:
                return _norm_bool(lv) != _norm_bool(rv)
            return lv != rv
        return ne
    if op not in ("<", "<=", ">", ">="):
        return _raiser(f"unknown comparison {op!r}", line)
    def ordered(env: Env) -> Value:
        lv = left(env)
        rv = right(env)
        if type(lv) is bool or type(rv) is bool:
            lv = _norm_bool(lv)
            rv = _norm_bool(rv)
        if not (isinstance(lv, int) and isinstance(rv, int)):
            raise EvalError("ordering comparison on non-integers", line)
        if op == "<":
            return lv < rv
        if op == "<=":
            return lv <= rv
        if op == ">":
            return lv > rv
        return lv >= rv
    return ordered


def compile_iteration(coll: N.Expr, analyzed: AnalyzedProgram,
                      bound: frozenset[str]) -> Callable[[Env], list[Value]]:
    """Compiled mirror of :func:`evaluator.iteration_values`: the
    deterministic iteration space of a quantifier collection."""
    a = analyzed
    if isinstance(coll, N.Name):
        # mirror of iteration_values: these special cases are static and
        # deliberately ignore env.params, exactly like the interpreter
        name = coll.ident
        if name in a.constants and isinstance(a.constants[name], int):
            values = list(range(a.constants[name]))
            return lambda env: values
        if name in a.types:
            values = list(a.types[name].values())
            return lambda env: values
    value_fn = compile_expr(coll, a, bound)
    line = getattr(coll, "line", 0)
    def run(env: Env) -> list[Value]:
        value = value_fn(env)
        if not isinstance(value, frozenset):
            raise EvalError("quantifier collection is not iterable", line)
        return sort_values(value, a)
    return run


# ---------------------------------------------------------------------------
# command (conclusion) compilation
# ---------------------------------------------------------------------------

def compile_commands(commands, analyzed: AnalyzedProgram,
                     bound: frozenset[str]) -> CommandFn:
    """Lower a conclusion to one closure executing its phase-1 gather
    against the snapshot state (mirror of ``gather_effects``)."""
    fns = tuple(_compile_command(cmd, analyzed, bound) for cmd in commands)
    if len(fns) == 1:
        return fns[0]
    def run(env: Env, effects: _Effects, subbase_runner) -> None:
        for f in fns:
            f(env, effects, subbase_runner)
    return run


def _compile_command(cmd, analyzed: AnalyzedProgram,
                     bound: frozenset[str]) -> CommandFn:
    a = analyzed
    if isinstance(cmd, N.Assign):
        value = compile_expr(cmd.value, a, bound)
        tgt = cmd.target
        if isinstance(tgt, N.Index):
            name = tgt.ident
            idx = _tupler(tuple(compile_expr(x, a, bound) for x in tgt.args))
            def assign_cell(env, effects, subbase_runner) -> None:
                v = value(env)
                effects.writes.append((name, idx(env), v))
            return assign_cell
        if isinstance(tgt, N.Name):
            name = tgt.ident
            def assign(env, effects, subbase_runner) -> None:
                effects.writes.append((name, (), value(env)))
            return assign
        line = cmd.line
        def bad_target(env, effects, subbase_runner):  # pragma: no cover
            raise EvalError("invalid assignment target", line)
        return bad_target
    if isinstance(cmd, N.Emit):
        event = cmd.event
        args = _tupler(tuple(compile_expr(x, a, bound) for x in cmd.args))
        def emit(env, effects, subbase_runner) -> None:
            effects.emissions.append(Emission(event, args(env)))
        return emit
    if isinstance(cmd, N.Return):
        value = compile_expr(cmd.value, a, bound)
        line = cmd.line
        def ret(env, effects, subbase_runner) -> None:
            if effects.has_return:
                raise EvalError("multiple RETURN commands fired in one "
                                "invocation", line)
            effects.returned = value(env)
            effects.has_return = True
        return ret
    if isinstance(cmd, N.ForallCmd):
        if not cmd.var:
            return compile_commands(cmd.body, a, bound)
        var = cmd.var
        values = compile_iteration(cmd.collection, a, bound)
        body = compile_commands(cmd.body, a, bound | {var})
        def unroll(env, effects, subbase_runner) -> None:
            for v in values(env):
                body(env.bind({var: v}), effects, subbase_runner)
        return unroll
    if isinstance(cmd, N.CallSubbase):
        ident = cmd.ident
        args = _tupler(tuple(compile_expr(x, a, bound) for x in cmd.args))
        line = cmd.line
        def call(env, effects, subbase_runner) -> None:
            if subbase_runner is None:
                raise EvalError(f"subbase command {ident!r} but no "
                                f"subbase runner attached", line)
            subbase_runner(ident, args(env), effects)
        return call
    line = getattr(cmd, "line", 0)
    def unknown(env, effects, subbase_runner):  # pragma: no cover
        raise EvalError(f"unknown command {cmd!r}", line)
    return unknown


def _commands_call_subbase(commands) -> bool:
    for cmd in commands:
        if isinstance(cmd, N.CallSubbase):
            return True
        if isinstance(cmd, N.ForallCmd) and _commands_call_subbase(cmd.body):
            return True
    return False


class _Conclusion:
    """One ground rule's compiled conclusion.

    Three execution shapes, from cheapest to most general:

    * ``static`` — only RETURNs of compile-time constants; the result is
      baked here and replayed without any evaluation;
    * ``value_fn`` — a single RETURN of a dynamic expression with no
      writes, emissions or subbase calls; one generated function
      computes the value, skipping the effects machinery entirely;
    * ``run`` — the general compiled command list with snapshot
      (gather/apply) semantics.
    """

    __slots__ = ("static", "returned", "has_return", "run", "calls_subbase",
                 "value_fn")

    def __init__(self, ground, analyzed: AnalyzedProgram,
                 bound: frozenset[str], tag: str = "",
                 param_safe: bool = False):
        self.static = False
        self.returned: Value | None = None
        self.has_return = False
        self.value_fn = None
        self.calls_subbase = _commands_call_subbase(ground.commands)
        self.run = compile_commands(ground.commands, analyzed, bound)
        # a conclusion is *static* when it can neither touch state nor
        # observe it: only RETURNs of compile-time constants.  Those are
        # resolved here once and replayed without evaluation.
        analyzer = analyzed.analyzer
        if self.calls_subbase:
            return
        if analyzer is not None and len(ground.commands) <= 1:
            values = []
            for cmd in ground.commands:
                if not isinstance(cmd, N.Return):
                    break
                try:
                    values.append(analyzer.const_eval(cmd.value))
                except Exception:
                    break
            else:
                self.static = True
                if values:
                    self.returned = values[0]
                    self.has_return = True
                return
        if len(ground.commands) == 1 and \
                isinstance(ground.commands[0], N.Return):
            try:
                self.value_fn = generate_value_fn(
                    ground.commands[0].value, analyzed, bound, tag,
                    param_safe)
            except Exception:  # pragma: no cover - codegen is best-effort
                value = compile_expr(ground.commands[0].value, analyzed,
                                     bound)
                self.value_fn = value


# ---------------------------------------------------------------------------
# source-level code generation
# ---------------------------------------------------------------------------
# The closure pipeline above is exact but still pays one Python call per
# AST node.  For the two shapes executed on every routing decision — the
# premise code tuple and return-only conclusions — we go one step
# further and generate source for the whole computation, inlining the
# dictionary reads of the happy path and deferring every unusual case
# (leaked params, callable input sources, bool-typed operands, dict
# subclasses, all error paths) to the exact closure or to a helper that
# replicates eval_expr verbatim.  Speed comes from collapsing call
# chains, never from skipping a check: any operand that is not of the
# statically expected concrete class is re-dispatched to the slow path.

def _h_tb(v, line):
    return to_bool(v, line)


def _h_bb(v):
    raise EvalError(f"expected a boolean, got {v!r}")


def _h_eqn(l, r, neg):
    l = _norm_bool(l)
    r = _norm_bool(r)
    return (l != r) if neg else (l == r)


def _h_ord(op, l, r, line):
    if type(l) is bool or type(r) is bool:
        l = _norm_bool(l)
        r = _norm_bool(r)
    if not (isinstance(l, int) and isinstance(r, int)):
        raise EvalError("ordering comparison on non-integers", line)
    if op == "<":
        return l < r
    if op == "<=":
        return l <= r
    if op == ">":
        return l > r
    return l >= r


def _h_arith(op, l, r, line):
    if not (isinstance(l, int) and isinstance(r, int)):
        raise EvalError(f"operator {op!r} needs integers, got "
                        f"{l!r} and {r!r}", line)
    if op == "+":
        return l + r
    if op == "-":
        return l - r
    if op == "*":
        return l * r
    if r == 0:
        raise EvalError("MOD by zero", line)
    return l % r


def _h_setop(op, l, r, line):
    if not (isinstance(l, frozenset) and isinstance(r, frozenset)):
        raise EvalError(f"{op} needs set operands", line)
    if op == "UNION":
        return l | r
    if op == "INTER":
        return l & r
    return l - r


def _h_neg(v, line):
    if not isinstance(v, int):
        raise EvalError("unary minus on non-integer", line)
    return -v


def _h_in(item, coll, line):
    if not isinstance(coll, frozenset):
        raise EvalError("IN needs a set on the right", line)
    return item in coll


def _h_nofn(name, line):
    raise EvalError(f"no implementation registered for function {name!r}",
                    line)


_HELPERS = {"_tb": _h_tb, "_bb": _h_bb, "_eqn": _h_eqn, "_ord": _h_ord,
            "_arith": _h_arith, "_setop": _h_setop, "_neg": _h_neg,
            "_in": _h_in, "_nofn": _h_nofn}

_PY_SETOP = {"UNION": "|", "INTER": "&", "DIFF": "-"}


def _pure_expr(e: N.Expr, a: AnalyzedProgram) -> bool:
    """True when re-evaluating ``e`` is free of observable effects and
    cheap enough to repeat on a fallback path: anything except function
    and subbase invocations (registered impls may be impure)."""
    if isinstance(e, (N.Num, N.Name)):
        return True
    if isinstance(e, N.Index):
        if e.ident in a.functions or e.ident in a.subbases:
            return False
        return all(_pure_expr(x, a) for x in e.args)
    if isinstance(e, N.SetLit):
        return all(_pure_expr(x, a) for x in e.items)
    if isinstance(e, (N.UnOp, N.Not)):
        return _pure_expr(e.operand, a)
    if isinstance(e, (N.BinOp, N.Compare)):
        return _pure_expr(e.left, a) and _pure_expr(e.right, a)
    if isinstance(e, N.InSet):
        return _pure_expr(e.item, a) and _pure_expr(e.collection, a)
    if isinstance(e, (N.And, N.Or)):
        return all(_pure_expr(t, a) for t in e.terms)
    if isinstance(e, N.Quant):
        return _pure_expr(e.collection, a) and _pure_expr(e.body, a)
    return False


class _SrcGen:
    """Emits statements computing one expression; complex or rare node
    shapes fall back to the compiled closure for that subtree.

    ``param_safe=True`` asserts that at runtime ``env.params`` holds
    exactly the bound names — true for top-level rule bases, which are
    only ever invoked with their declared argument bindings.  Subbases
    can inherit extra parameters from the calling base (``env.bind``
    merges), so their generated code keeps the ``params`` probe that
    mirrors ``eval_expr``'s name-resolution order.
    """

    def __init__(self, analyzed: AnalyzedProgram, bound: frozenset[str],
                 param_safe: bool = False):
        self.a = analyzed
        self.bound = bound
        self.psafe = param_safe
        self.ns: dict = dict(_HELPERS)
        self.lines: list[str] = []
        self.indent = 1
        self.k = 0
        # common-subexpression cache for scalar register/input reads:
        # within one generated function nothing mutates either store
        # (conclusions gather effects against the pre-state), so a
        # repeated read returns the first read's temp.  Only temps
        # assigned at top level (indent 1) are cached — a temp defined
        # inside an And/Or branch does not dominate later uses.
        self.cse: dict[tuple[str, str], str] = {}

    def put(self, s: str) -> None:
        self.lines.append("    " * self.indent + s)

    def tmp(self) -> str:
        self.k += 1
        return f"t{self.k}"

    def bindobj(self, obj, prefix: str = "o") -> str:
        self.k += 1
        name = f"_{prefix}{self.k}"
        self.ns[name] = obj
        return name

    def totmp(self, src: str) -> str:
        if src.isidentifier():
            return src
        t = self.tmp()
        self.put(f"{t} = {src}")
        return t

    def fallback(self, e: N.Expr) -> str:
        fn = compile_expr(e, self.a, self.bound)
        return self.totmp(f"{self.bindobj(fn, 'f')}(env)")

    def coerced(self, e: N.Expr, line: int) -> str:
        t = self.totmp(self.expr(e))
        self.put(f"if {t}.__class__ is not bool: {t} = _tb({t}, {line})")
        return t

    def _tuple_src(self, parts: list[str]) -> str:
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    def _simple_src(self, e: N.Expr) -> str | None:
        """Source for side-effect-free leaf args (safe to re-evaluate on
        the fallback path), or None if the arg is not that simple."""
        a = self.a
        if isinstance(e, N.Num):
            return repr(e.value)
        if isinstance(e, N.Name):
            name = e.ident
            if name in self.bound:
                return f"p[{name!r}]"
            if name in a.symbol_owner:
                return f"{name!r}" if self.psafe \
                    else f"p.get({name!r}, {name!r})"
            if name in a.constants:
                c = self.bindobj(a.constants[name], "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
        return None

    def expr(self, e: N.Expr) -> str:
        a = self.a
        if isinstance(e, N.Num):
            return repr(e.value)
        if isinstance(e, N.Name):
            name = e.ident
            if name in self.bound:
                return f"p[{name!r}]"
            if name in a.symbol_owner:
                if self.psafe:
                    return f"{name!r}"
                return f"p.get({name!r}, {name!r})"
            if name in a.constants:
                c = self.bindobj(a.constants[name], "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
            if name in a.types:
                c = self.bindobj(frozenset(a.types[name].values()), "c")
                return c if self.psafe else f"p.get({name!r}, {c})"
            if name in a.variables and not a.variables[name].is_array:
                cached = self.cse.get(("reg", name))
                if cached is not None:
                    return cached
                if self.psafe:
                    t = self.tmp()
                    self.put(f"{t} = regs.read({name!r})")
                else:
                    t = self.tmp()
                    self.put(f"{t} = p.get({name!r})")
                    self.put(f"if {t} is None:")
                    self.put(f"    {t} = regs.read({name!r})")
                if self.indent == 1:
                    self.cse[("reg", name)] = t
                return t
            if name in a.inputs and not a.inputs[name].index_domains:
                cached = self.cse.get(("in", name))
                if cached is not None:
                    return cached
                slow = self.bindobj(compile_expr(e, a, self.bound), "f")
                t = self.tmp()
                if self.psafe:
                    # m is non-None here: the generated function bails
                    # to the closure fallback up front when it is not
                    self.put(f"{t} = m.get({name!r})")
                    self.put(f"if {t} is None or isinstance({t}, dict):")
                    self.put(f"    {t} = {slow}(env)")
                else:
                    self.put(f"{t} = p.get({name!r})")
                    self.put(f"if {t} is None:")
                    self.put(f"    {t} = m.get({name!r})")
                    self.put(f"    if {t} is None or isinstance({t}, dict):")
                    self.put(f"        {t} = {slow}(env)")
                if self.indent == 1:
                    self.cse[("in", name)] = t
                return t
            return self.fallback(e)
        if isinstance(e, N.Index):
            name = e.ident
            if name in a.variables:
                parts = [self.expr(x) for x in e.args]
                return self.totmp(
                    f"regs.read({name!r}, {self._tuple_src(parts)})")
            if name in a.inputs and a.inputs[name].index_domains:
                # args are evaluated to temps first (legacy order), and
                # must be pure: the slow closure re-evaluates them when
                # the inline read misses
                if not all(_pure_expr(x, a) for x in e.args):
                    return self.fallback(e)
                parts = [self._simple_src(x) or self.totmp(self.expr(x))
                         for x in e.args]
                idx_src = self._tuple_src(parts)
                read_key = ("ini", name, idx_src)
                cached = self.cse.get(read_key)
                if cached is not None:
                    return cached
                slow = self.bindobj(compile_expr(e, a, self.bound), "f")
                w = self.cse.get(("im", name))
                if w is None:
                    w = self.tmp()
                    self.put(f"{w} = m.get({name!r})")
                    if self.indent == 1:
                        self.cse[("im", name)] = w
                t = self.tmp()
                self.put(f"if {w}.__class__ is dict:")
                self.put(f"    {t} = {w}.get({idx_src})")
                self.put(f"    if {t} is None:")
                self.put(f"        {t} = {slow}(env)")
                self.put("else:")
                self.put(f"    {t} = {slow}(env)")
                if self.indent == 1:
                    self.cse[read_key] = t
                return t
            if name in a.functions:
                parts = [self.expr(x) for x in e.args]
                fn_t = self.tmp()
                self.put(f"{fn_t} = fns.get({name!r})")
                self.put(f"if {fn_t} is None: _nofn({name!r}, {e.line})")
                return self.totmp(f"{fn_t}({', '.join(parts)})")
            return self.fallback(e)
        if isinstance(e, N.SetLit):
            # symbol/constant items fold only when param-safe (a leaked
            # outer param could shadow them otherwise, like eval_expr)
            if all(isinstance(i, N.Num) or
                   (self.psafe and isinstance(i, N.Name)
                    and i.ident not in self.bound
                    and (i.ident in a.symbol_owner or i.ident in a.constants))
                   for i in e.items):
                value = frozenset(
                    i.value if isinstance(i, N.Num)
                    else i.ident if i.ident in a.symbol_owner
                    else a.constants[i.ident]
                    for i in e.items)
                return self.bindobj(value, "c")
            parts = [self.expr(x) for x in e.items]
            return self.totmp(f"frozenset({self._tuple_src(parts)})")
        if isinstance(e, N.UnOp):
            t1 = self.totmp(self.expr(e.operand))
            return self.totmp(f"-{t1} if {t1}.__class__ is int "
                              f"else _neg({t1}, {e.line})")
        if isinstance(e, N.BinOp):
            op = e.op
            l = self.totmp(self.expr(e.left))
            r = self.totmp(self.expr(e.right))
            if op in _PY_SETOP:
                return self.totmp(
                    f"{l} {_PY_SETOP[op]} {r} if {l}.__class__ is frozenset "
                    f"and {r}.__class__ is frozenset "
                    f"else _setop({op!r}, {l}, {r}, {e.line})")
            if op in ("+", "-", "*"):
                return self.totmp(
                    f"{l} {op} {r} if ({l}.__class__ is int and "
                    f"{r}.__class__ is int) "
                    f"else _arith({op!r}, {l}, {r}, {e.line})")
            if op == "MOD":
                return self.totmp(
                    f"{l} % {r} if ({l}.__class__ is int and "
                    f"{r}.__class__ is int and {r} != 0) "
                    f"else _arith('MOD', {l}, {r}, {e.line})")
            return self.fallback(e)
        if isinstance(e, N.Compare):
            op = e.op
            if op not in ("=", "/=", "<", "<=", ">", ">="):
                return self.fallback(e)
            l = self.totmp(self.expr(e.left))
            r = self.totmp(self.expr(e.right))
            if op in ("=", "/="):
                pyop = "==" if op == "=" else "!="
                return self.totmp(
                    f"({l} {pyop} {r}) if ({l}.__class__ is not bool and "
                    f"{r}.__class__ is not bool) "
                    f"else _eqn({l}, {r}, {op == '/='})")
            return self.totmp(
                f"({l} {op} {r}) if ({l}.__class__ is int and "
                f"{r}.__class__ is int) "
                f"else _ord({op!r}, {l}, {r}, {e.line})")
        if isinstance(e, N.InSet):
            i = self.totmp(self.expr(e.item))
            c = self.totmp(self.expr(e.collection))
            return self.totmp(f"({i} in {c}) if {c}.__class__ is frozenset "
                              f"else _in({i}, {c}, {e.line})")
        if isinstance(e, (N.And, N.Or)):
            is_and = isinstance(e, N.And)
            t = self.tmp()
            c = self.coerced(e.terms[0], e.line)
            self.put(f"{t} = {c}")
            depth = 0
            for term in e.terms[1:]:
                self.put(f"if {t}:" if is_and else f"if not {t}:")
                self.indent += 1
                depth += 1
                c = self.coerced(term, e.line)
                self.put(f"{t} = {c}")
            self.indent -= depth
            return t
        if isinstance(e, N.Not):
            c = self.coerced(e.operand, e.line)
            return self.totmp(f"not {c}")
        return self.fallback(e)


_GEN_PRELUDE = ("def _gen(env):\n"
                "    p = env.params\n"
                "    m = env.inputs_map\n"
                "    fns = env.functions\n"
                "    regs = env.registers\n")


def _exec_gen(gen: _SrcGen, result_src: str, tag: str):
    src = _GEN_PRELUDE + "\n".join(gen.lines) + f"\n    return {result_src}\n"
    code = compile(src, f"<fastpath:{tag}>", "exec")
    exec(code, gen.ns)
    return gen.ns["_gen"]


def generate_codes_fn(base, analyzed: AnalyzedProgram,
                      bound: frozenset[str], param_safe: bool = False,
                      slow_fallback=None):
    """One generated function computing the whole feature-code tuple.

    ``slow_fallback`` (the closure-compiled tuple builder) handles the
    callable-inputs case: generated input reads assume a mapping-backed
    source, so the function bails out up front when there is none.
    """
    gen = _SrcGen(analyzed, bound, param_safe)
    if slow_fallback is not None:
        fb = gen.bindobj(slow_fallback, "fb")
        gen.put(f"if m is None: return {fb}(env)")
    parts = []
    for feat in base.analysis.features:
        if isinstance(feat, DirectFeature):
            enc = gen.bindobj(feat.domain.encode, "e")
            parts.append(gen.totmp(f"{enc}({gen.expr(feat.signal)})"))
        else:
            t0 = gen.totmp(gen.expr(feat.atom))
            parts.append(gen.totmp(
                f"1 if {t0} is True or {t0} == 'true' else "
                f"(0 if {t0} is False or {t0} == 'false' else _bb({t0}))"))
    return _exec_gen(gen, gen._tuple_src(parts), f"codes:{base.name}")


def generate_value_fn(expr: N.Expr, analyzed: AnalyzedProgram,
                      bound: frozenset[str], tag: str,
                      param_safe: bool = False):
    """One generated function computing a single expression value."""
    gen = _SrcGen(analyzed, bound, param_safe)
    fb = gen.bindobj(compile_expr(expr, analyzed, bound), "fb")
    gen.put(f"if m is None: return {fb}(env)")
    return _exec_gen(gen, gen.totmp(gen.expr(expr)), f"value:{tag}")


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

class DecisionKernel:
    """Per-rule-base fast path: extractors + strides + memo + compiled
    conclusions.  Built lazily, once per
    :class:`~repro.core.compiler.compile.CompiledProgram` (see its
    ``kernel``), and shared by every engine running that program, so it
    holds nothing that belongs to one engine: registers, inputs and the
    call environments that reference them stay with the caller."""

    __slots__ = ("base", "analyzed", "extractors", "strides", "params_meta",
                 "memo", "memo_enabled", "_conclusions", "_bound", "_codes",
                 "_bind_memo", "_psafe")

    def __init__(self, base, analyzed: AnalyzedProgram):
        self.base = base
        self.analyzed = analyzed
        self._bound = frozenset(name for name, _ in base.params)
        # a top-level rule base is only ever invoked with its declared
        # argument bindings as env.params (subbases can inherit extra
        # params from the caller via env.bind), so its generated code
        # may resolve free names without the params probe
        self._psafe = base.name not in analyzed.subbases
        extractors = []
        sizes = []
        for feat in base.analysis.features:
            if isinstance(feat, DirectFeature):
                signal = compile_expr(feat.signal, analyzed, self._bound)
                encode = feat.domain.encode
                extractors.append(_direct_extractor(signal, encode))
            else:
                assert isinstance(feat, BitFeature)
                atom = compile_expr(feat.atom, analyzed, self._bound)
                extractors.append(_bit_extractor(atom))
            sizes.append(feat.size)
        self.extractors = tuple(extractors)
        try:
            self._codes = generate_codes_fn(base, analyzed, self._bound,
                                            self._psafe,
                                            _tupler(self.extractors))
        except Exception:  # pragma: no cover - codegen is best-effort
            self._codes = _tupler(self.extractors)
        # mixed-radix strides: index_of(codes) == dot(strides, codes)
        strides = [0] * len(sizes)
        acc = 1
        for i in range(len(sizes) - 1, -1, -1):
            strides[i] = acc
            acc *= sizes[i]
        self.strides = tuple(strides)
        self.params_meta = tuple(
            (name, dom, f"argument {name} of {base.name}")
            for name, dom in base.params)
        self.memo: dict[tuple[int, ...], int] = {}
        self.memo_enabled = base.analysis.n_entries <= MAX_MEMO_ENTRIES
        self._conclusions: dict[int, _Conclusion] = {}
        self._bind_memo: dict[tuple[Value, ...], dict[str, Value]] = {}

    # -- premise processing -------------------------------------------------

    def codes(self, env: Env) -> tuple[int, ...]:
        return self._codes(env)

    def index(self, env: Env) -> int:
        idx = 0
        for ex, stride in zip(self.extractors, self.strides):
            idx += stride * ex(env)
        return idx

    def entry(self, env: Env) -> int:
        """Table entry for the current environment, memoised on the
        feature-code tuple."""
        if not self.memo_enabled:
            return int(self.base.table[self.index(env)])
        codes = self._codes(env)
        entry = self.memo.get(codes)
        if entry is None:
            idx = 0
            for stride, code in zip(self.strides, codes):
                idx += stride * code
            entry = int(self.base.table[idx])
            self.memo[codes] = entry
        return entry

    # -- conclusion processing ----------------------------------------------

    def conclusion(self, entry: int) -> _Conclusion:
        con = self._conclusions.get(entry)
        if con is None:
            con = _Conclusion(self.base.ground_rules[entry], self.analyzed,
                              self._bound, f"{self.base.name}[{entry}]",
                              self._psafe)
            self._conclusions[entry] = con
        return con

    # -- one full decision ----------------------------------------------------

    def invoke(self, args: tuple[Value, ...], env: Env,
               subbase_runner_factory,
               env_memo: dict[tuple[Value, ...], Env]) -> InvocationResult:
        """One decision against ``env``.  ``env_memo`` is the calling
        engine's cache of call environments for this base, keyed by
        ``args``; it must not be shared between engines, since each
        entry holds one engine's registers."""
        base = self.base
        if base.table is None:
            raise EvalError(f"rule base {base.name!r} was compiled without "
                            f"a materialized table; recompile with "
                            f"materialize=True to execute it")
        # args repeat from a small space; memoise the checked bindings.
        # The dict is shared across invocations — safe because nothing
        # downstream mutates env.params (binds always copy).
        bindings = self._bind_memo.get(args)
        if bindings is None:
            if len(args) != len(self.params_meta):
                raise EvalError(f"rule base {base.name!r} expects "
                                f"{len(self.params_meta)} arguments, got "
                                f"{len(args)}")
            bindings = {}
            for (name, dom, what), value in zip(self.params_meta, args):
                dom.check(value, what)
                bindings[name] = value
            if len(self._bind_memo) < 4096:
                self._bind_memo[args] = bindings
        if env.params:
            call_env = env.bind(bindings)
        else:
            # param-less caller == the engine's base environment, whose
            # non-input fields are identity-stable for the engine's
            # lifetime (set_inputs swaps inputs/inputs_map in place).
            # The call environment per args tuple is therefore reusable
            # once its inputs fields are refreshed.
            call_env = env_memo.get(args)
            if call_env is None:
                call_env = Env(env.analyzed, env.registers, bindings,
                               env.inputs, env.functions, env.call_subbase,
                               env.inputs_map)
                if len(env_memo) < 4096:
                    env_memo[args] = call_env
            elif call_env.inputs is not env.inputs:
                call_env.inputs = env.inputs
                call_env.inputs_map = env.inputs_map

        entry = self.entry(call_env)
        result = InvocationResult(base=base.name, fired_source_rule=None)
        if entry == NO_RULE:
            return result
        ground = base.ground_rules[entry]
        result.fired_source_rule = ground.source_index
        result.witness = ground.witness
        con = self.conclusion(entry)
        if con.static:
            result.returned = con.returned
            result.has_return = con.has_return
            return result
        if con.value_fn is not None:
            result.returned = con.value_fn(call_env)
            result.has_return = True
            return result
        effects = _Effects()
        runner = (subbase_runner_factory(call_env)
                  if con.calls_subbase else None)
        con.run(call_env, effects, runner)
        apply_effects(effects, call_env, result)
        return result


def _direct_extractor(signal: ExprFn, encode) -> Callable[[Env], int]:
    return lambda env: encode(signal(env))


def _bit_extractor(atom: ExprFn) -> Callable[[Env], int]:
    def extract(env: Env) -> int:  # to_bool inlined: this runs per bit
        v = atom(env)
        if v is True or v == "true":
            return 1
        if v is False or v == "false":
            return 0
        raise EvalError(f"expected a boolean, got {v!r}")
    return extract
