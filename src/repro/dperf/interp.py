"""Mini-C execution with operation accounting.

This is the "execution of instrumented code" stage of dPerf (Fig. 6):
the program runs for real — arrays hold real numbers, messages carry
real data between ranks — while every operation is charged to the
innermost active instrumented block of the per-rank
:class:`~repro.dperf.papi.SkeletonRecorder`.

Each :class:`Interp` compiles the program once into closures over
compile-time-resolved local slots; they charge operations, count steps
and raise errors in tree-walk order, so census key order is stable.
Multi-rank runs use one thread per rank under a baton: one rank runs
at a time and passes on, in rank order, only when it blocks (``recv``
on an empty channel, barrier, allreduce).  If no rank can run, every
rank fails at once with an :class:`InterpError` naming the wait-for
edges — a deadlock is reported, never a hang.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from .instrument import BlockTable
from .minic import cast as A
from .minic.semantics import BUILTINS, COMM_APIS
from .papi import Census, CommRecord, SkeletonRecorder


class InterpError(Exception):
    pass


class _Deadlock(InterpError):
    """Raised in every blocked rank once no rank can run."""


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


@dataclass(eq=False, slots=True)
class CArray:
    """A mini-C array backed by a numpy array (views share storage)."""

    data: np.ndarray
    is_float: bool


# --------------------------------------------------------------------------
# Communication runtimes
# --------------------------------------------------------------------------

class NullComm:
    """Single-process runtime: rank 0 of 1; point-to-point is an error."""

    rank = 0
    size = 1

    def data_send(self, dst: int, values: np.ndarray, tag: str) -> None:
        raise InterpError("p2psap send with no peers (NullComm)")

    def data_recv(self, src: int, count: int, tag: str) -> np.ndarray:
        raise InterpError("p2psap recv with no peers (NullComm)")

    def barrier(self) -> None:
        pass

    def allreduce_max(self, value: float) -> float:
        return value


class _Baton:
    """Runs the rank threads of one distributed run one at a time: each
    sleeps on its own lock, and the running rank wakes the next runnable
    one (in rank order after itself) only when it blocks or ends."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.channels: Dict[tuple, deque] = defaultdict(deque)
        self.locks = [threading.Semaphore(0) for _ in range(size)]
        self.waits: List[Optional[tuple]] = [None] * size  # (kind, peer)
        self.done = [False] * size
        self.arrived: Dict[int, Any] = {}  # rank -> value, open collective
        self.result: Any = None  # every rank reads it before the next
        self.stalled: Optional[str] = None

    def _runnable(self, rank: int) -> bool:
        wait = self.waits[rank]
        return not self.done[rank] and (wait is None or wait[0] == "recv"
                                        and bool(self.channels[wait[1], rank]))

    def _edge(self, rank: int) -> str:
        kind, peer = self.waits[rank]
        if kind == "recv":
            return f"rank {rank} waits in recv from rank {peer}"
        missing = [r for r in range(self.size) if r not in self.arrived]
        return f"rank {rank} waits at {kind} for ranks {missing}"

    def _hand_on(self, rank: int) -> None:
        for step in range(1, self.size + 1):
            nxt = (rank + step) % self.size
            if self._runnable(nxt):
                self.locks[nxt].release()
                return
        blocked = [r for r in range(self.size) if not self.done[r]]
        if blocked:
            self.stalled = "deadlock: " + "; ".join(map(self._edge, blocked))
            for r in set(blocked) - {rank}:
                self.locks[r].release()

    def block(self, rank: int, kind: str, peer: Optional[int] = None) -> None:
        self.waits[rank] = (kind, peer)
        self._hand_on(rank)
        if self.stalled is None:
            self.locks[rank].acquire()
        if self.stalled is not None:
            raise _Deadlock(self.stalled)
        self.waits[rank] = None

    def finish(self, rank: int) -> None:
        self.done[rank] = True
        if self.stalled is None:
            self._hand_on(rank)

    def collective(self, rank: int, kind: str, value: Any) -> Any:
        arrived = self.arrived
        if arrived and self.waits[min(arrived)][0] != kind:
            raise InterpError(f"rank {rank}: {kind} while ranks"
                              f" {sorted(arrived)} wait at another collective")
        arrived[rank] = value
        if len(arrived) < self.size:
            self.block(rank, kind)
            return self.result
        self.result = (max([arrived[r] for r in range(self.size)])
                       if kind == "allreduce" else None)
        for r in arrived:
            self.waits[r] = None
        self.arrived = {}
        return self.result


@dataclass
class RankComm:
    """One rank's endpoint of the baton-scheduled multi-rank runtime."""

    rank: int
    size: int
    _baton: _Baton

    def data_send(self, dst: int, values: np.ndarray, tag: str) -> None:
        if not (0 <= dst < self.size):
            raise InterpError(f"send to invalid rank {dst}")
        self._baton.channels[self.rank, dst].append(np.array(values, copy=True))

    def data_recv(self, src: int, count: int, tag: str) -> np.ndarray:
        if not (0 <= src < self.size):
            raise InterpError(f"recv from invalid rank {src}")
        channel = self._baton.channels[src, self.rank]
        if not channel:
            self._baton.block(self.rank, "recv", src)
        data = channel.popleft()
        if len(data) != count:
            raise InterpError(f"rank {self.rank}: recv count {count}"
                              f" != sent {len(data)}")
        return data

    def barrier(self) -> None:
        self._baton.collective(self.rank, "barrier", None)

    def allreduce_max(self, value: float) -> float:
        return self._baton.collective(self.rank, "allreduce", value)


# --------------------------------------------------------------------------
# The compiler
# --------------------------------------------------------------------------

_FLOAT_TYPES = ("float", "double")

_PRINTF_SPEC = re.compile(r"%[-+ #0-9.]*([dioufgGeEsxX%])")


def _converter(type_name: str) -> Callable[[Any], Any]:
    """Store conversion to a declared type (``None`` passes through)."""
    conv = float if type_name in _FLOAT_TYPES else int
    return lambda value: None if value is None else conv(value)


def _c_div(left: Any, right: Any, line: int, mod: bool = False) -> Any:
    """C ``/`` (``%`` if ``mod``), exact on ints: truncates toward zero."""
    if isinstance(left, int) and isinstance(right, int):
        if right == 0:
            what = "modulo" if mod else "integer division"
            raise InterpError(f"line {line}: {what} by zero")
        q, rem = divmod(abs(left), abs(right))
        if mod:
            return -rem if left < 0 else rem
        return q if (left < 0) == (right < 0) else -q
    if mod:
        raise InterpError(f"line {line}: %% requires integers")
    if right == 0.0:
        return math.inf if left > 0 else (-math.inf if left < 0 else math.nan)
    return left / right


#: operator -> (function, op category unless both operands are ints)
_BINARY: Dict[str, tuple] = {
    "+": (operator.add, "fp_add"), "-": (operator.sub, "fp_add"),
    "*": (operator.mul, "fp_mul"), "/": (_c_div, "fp_div"),
    "%": (_c_div, "int_op"),
}
for _op, _fn in {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                 ">=": operator.ge, "==": operator.eq,
                 "!=": operator.ne}.items():
    _BINARY[_op] = (lambda a, b, test=_fn: int(test(a, b)), "int_op")
for _op, _fn in {"&": operator.and_, "|": operator.or_, "^": operator.xor,
                 "<<": operator.lshift, ">>": operator.rshift}.items():
    _BINARY[_op] = (lambda a, b, bits=_fn: bits(int(a), int(b)), "int_op")
_UNARY: Dict[str, tuple] = {"-": (operator.neg, "fp_add"),
                            "!": (lambda v: int(not v), "int_op"),
                            "~": (lambda v: ~int(v), "int_op")}
_MATH: Dict[str, Callable] = {
    "fabs": lambda x: abs(float(x)), "sqrt": math.sqrt, "exp": math.exp,
    "log": math.log, "pow": math.pow, "floor": math.floor, "ceil": math.ceil,
    "fmax": lambda a, b: max(float(a), float(b)),
    "fmin": lambda a, b: min(float(a), float(b)),
    "abs": lambda x: abs(int(x)),
}
_MESSAGES = {"p2psap_send": "send", "mpi_send": "send", "mpi_isend": "isend",
             "p2psap_isend": "isend", "p2psap_recv": "recv", "mpi_recv": "recv"}


def _check_index(data: np.ndarray, idx: Sequence[int], line: int,
                 name: str) -> None:
    if len(idx) > data.ndim:
        raise InterpError(f"line {line}: {name!r} has {data.ndim} dims,"
                          f" indexed with {len(idx)}")
    for axis, (i, size) in enumerate(zip(idx, data.shape)):
        if not (0 <= i < size):
            raise InterpError(f"line {line}: index {i} out of bounds for axis"
                              f" {axis} of {name!r} (size {size})")


def _raiser(message: str, error: type = InterpError) -> Callable:
    def fail(*_args: Any) -> Any:
        raise error(message)
    return fail


def _no_op(*_args: Any) -> None:
    return None


def _seq(runs: List[Callable]) -> Callable:
    """One closure running ``runs`` in order."""
    if len(runs) == 1:
        return runs[0]

    def run_all(f):
        for run in runs:
            run(f)
    return run_all


class _Ctx:
    """Compile-time scopes (``name -> (slot, type name)``) of a function,
    or of the global initializers; ``ctrl`` is the innermost enclosing
    instrumented loop's control block."""

    def __init__(self, is_global: bool = False) -> None:
        self.is_global = is_global
        self.scopes: List[Dict[str, tuple]] = [{}]
        self.nslots = 0
        self.ctrl: Optional[int] = None

    def declare(self, name: str, type_name: str) -> Any:
        """The slot of a new local (a global is keyed by its name)."""
        if self.is_global:
            return name
        self.scopes[-1][name] = (self.nslots, type_name)
        self.nslots += 1
        return self.nslots - 1

    def resolve(self, name: str) -> Optional[tuple]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class Interp:
    """Compiles one rank's program, then runs it with operation accounting.

    Statements and expressions compile to closures over ``f``, the slot
    list of one activation (``globals`` for global initializers); jumps
    unwind as exceptions.  ``charge`` returns ``None``, so ``charge(c)
    or value`` charges, then evaluates ``value``."""

    def __init__(
        self,
        program: A.Program,
        recorder: Optional[SkeletonRecorder] = None,
        comm: Optional[Any] = None,
        block_table: Optional[BlockTable] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        self.program = program
        self.recorder = recorder or SkeletonRecorder(0)
        self.comm = comm or NullComm()
        self.table = block_table
        self.output: List[str] = []
        self.max_steps = max_steps
        self._steps = 0
        self._ctrl_stack: List[int] = []  # innermost loop-control block ids
        self.globals: Dict[str, Any] = {}
        self.global_types = {d.name: d.type.name
                             for s in program.globals for d in s.decls}
        self._charge = self.recorder.charge
        self._tick = self._step if max_steps is not None else lambda: None
        self.funcs = {f.name: (len(f.params), self._function(f))
                      for f in program.funcs}
        ctx = _Ctx(is_global=True)
        for init in [self._stmt_body(s, ctx) for s in program.globals]:
            init(self.globals)

    def call_function(self, name: str, args: Sequence[Any]) -> Any:
        entry = self.funcs.get(name)
        if entry is None:
            raise InterpError(f"no function {name!r}")
        nparams, invoke = entry
        if len(args) != nparams:
            raise InterpError(f"{name}() takes {nparams} args, got {len(args)}")
        return invoke(args)

    def _step(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise InterpError(f"step limit {self.max_steps} exceeded")

    # -- functions and statements ---------------------------------------------
    def _function(self, func: A.FuncDef) -> Callable[[Sequence[Any]], Any]:
        ctx = _Ctx()
        params = [(p, ctx.declare(p.name, p.type.name),
                   _converter(p.type.name)) for p in func.params]
        body = self._block(func.body, ctx)
        nslots, name = ctx.nslots, func.name
        ret = None if func.return_type.is_void else _converter(
            func.return_type.name)

        def invoke(args: Sequence[Any]) -> Any:
            f = [None] * nslots
            for (param, slot, conv), arg in zip(params, args):
                if param.is_array and isinstance(arg, np.ndarray):
                    arg = CArray(arg, param.type.name in _FLOAT_TYPES)
                if param.is_array and not isinstance(arg, CArray):
                    raise InterpError(f"{name}(): parameter {param.name!r}"
                                      " expects an array")
                f[slot] = arg if param.is_array else conv(arg)
            try:
                body(f)
            except _ReturnSignal as sig:
                return None if ret is None else ret(sig.value)
            return None
        return invoke

    def _stmt(self, stmt: A.Stmt, ctx: _Ctx, scoped: bool = False) -> Callable:
        """A statement counted as one step (in its own scope if asked)."""
        if scoped:
            ctx.scopes.append({})
        run, tick = self._stmt_body(stmt, ctx), self._tick
        if scoped:
            ctx.scopes.pop()
        return run if self.max_steps is None else lambda f: tick() or run(f)

    def _block(self, block: A.Block, ctx: _Ctx) -> Callable:
        ctx.scopes.append({})
        run = _seq([self._stmt(s, ctx) for s in block.stmts] or [_no_op])
        ctx.scopes.pop()
        return run

    def _stmt_body(self, stmt: A.Stmt, ctx: _Ctx) -> Callable:
        kind = type(stmt)
        if kind is A.ExprStmt:
            return self._expr(stmt.expr, ctx)
        if kind is A.DeclStmt:
            return _seq([self._declarator(d, ctx) for d in stmt.decls])
        if kind is A.Block:
            return self._block(stmt, ctx)
        if kind is A.If:
            return self._if(stmt, ctx)
        if kind in (A.While, A.For):
            return self._loop(stmt, ctx)
        if kind is A.Return:
            value = _no_op if stmt.value is None else self._expr(stmt.value, ctx)

            def ret(f):
                raise _ReturnSignal(value(f))
            return ret
        if kind in (A.Break, A.Continue):
            return _raiser("", _BreakSignal if kind is A.Break
                           else _ContinueSignal)
        if kind is A.Empty:
            return _no_op
        return _raiser(f"unsupported statement {kind.__name__}")

    def _declarator(self, d: A.VarDecl, ctx: _Ctx) -> Callable:
        # dims and initializer still see any enclosing binding of the name
        dims = [self._expr(e, ctx) for e in d.dims]
        init = None if d.init is None else self._expr(d.init, ctx)
        tname, line, name, charge = d.type.name, d.line, d.name, self._charge
        key = ctx.declare(name, tname)
        if not d.is_array:
            conv = _converter(tname)

            def declare_scalar(f):
                f[key] = conv(0 if init is None else init(f))
                charge("scalar_store")
            return declare_scalar
        is_float = tname in _FLOAT_TYPES
        dtype = np.float64 if is_float else np.int64

        def declare_array(f):
            shape = []
            for dim_expr in dims:
                shape.append(int(dim_expr(f)))
                if shape[-1] <= 0:
                    raise InterpError(f"line {line}: array {name!r}"
                                      f" dimension {shape[-1]} <= 0")
            f[key] = CArray(np.zeros(shape, dtype), is_float)
            if init is not None:
                raise InterpError(
                    f"line {line}: array initializers are not supported")
        return declare_array

    def _under_ctrl(self, run: Callable, ctrl: Optional[int],
                    dynamic: bool = False) -> Callable:
        """``run`` with its ops attributed to loop-control block ``ctrl``;
        ``dynamic`` takes the innermost *running* loop's block instead
        (an ``if`` outside any loop of its own function)."""
        rec, stack = self.recorder, self._ctrl_stack
        if ctrl is None and not (dynamic and self.table is not None):
            return run

        def attributed(f):
            block = ctrl if ctrl is not None else (stack[-1] if stack else None)
            if block is None:
                return run(f)
            rec.attr_push(block)
            try:
                return run(f)
            finally:
                rec.attr_pop()
        return attributed

    def _if(self, stmt: A.If, ctx: _Ctx) -> Callable:
        cond = self._under_ctrl(self._expr(stmt.cond, ctx), ctx.ctrl, True)
        then = self._stmt(stmt.then, ctx, scoped=True)
        other = _no_op if stmt.other is None else self._stmt(
            stmt.other, ctx, scoped=True)
        charge = self._charge
        return lambda f: charge("branch") or (then if cond(f) else other)(f)

    def _loop(self, stmt, ctx: _Ctx) -> Callable:
        """``while``/``for``; test (a branch), init and step are charged
        to the loop's control block."""
        ctrl = self.table.control_block_for(stmt) if self.table else None
        ctx.scopes.append({})
        init, step = getattr(stmt, "init", None), getattr(stmt, "step", None)
        init = init and self._under_ctrl(self._stmt(init, ctx), ctrl)
        cond = None if stmt.cond is None else self._expr(stmt.cond, ctx)
        step = step and self._under_ctrl(self._expr(step, ctx), ctrl)
        outer, ctx.ctrl = ctx.ctrl, ctx.ctrl if ctrl is None else ctrl
        body = self._stmt(stmt.body, ctx, scoped=True)
        ctx.ctrl = outer
        ctx.scopes.pop()
        charge, tick, stack = self._charge, self._tick, self._ctrl_stack
        test = self._under_ctrl(
            lambda f: charge("branch") or cond is None or cond(f), ctrl)

        def run_loop(f):
            if init is not None:
                init(f)
            while True:
                tick()
                if not test(f):
                    break
                if ctrl is not None:
                    stack.append(ctrl)
                try:
                    body(f)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                finally:
                    if ctrl is not None:
                        stack.pop()
                if step is not None:
                    step(f)
        return run_loop

    # -- expressions -------------------------------------------------------------
    def _expr(self, expr: A.Expr, ctx: _Ctx) -> Callable:
        kind, charge = type(expr), self._charge
        if kind in (A.IntLit, A.FloatLit, A.StringLit):
            value = expr.value
            return lambda f: value
        if kind is A.Ident:
            get = self._place(expr.name, expr.line, ctx)[0]

            def load(f):
                value = get(f)
                if not isinstance(value, CArray):
                    charge("scalar_load")
                return value
            return load
        if kind is A.Index:
            return self._element(expr, ctx)
        if kind is A.BinOp:
            return self._binop(expr, ctx)
        if kind is A.Assign:
            value_fn = self._expr(expr.value, ctx)
            read, write = self._lvalue(expr.target, ctx)
            apply = None if expr.op == "=" else self._apply(expr.op[0],
                                                             expr.line)

            def assign(f):
                value = value_fn(f)
                if apply is not None:
                    value = apply(read(f), value)
                write(f, value)
                return value
            return assign
        if kind is A.Call:
            return self._call(expr, ctx)
        if kind is A.UnOp:
            return self._unop(expr, ctx)
        if kind is A.Cast:
            inner, conv = self._expr(expr.expr, ctx), _converter(expr.type.name)
            return lambda f: charge("int_op") or conv(inner(f))
        if kind is A.Cond:
            cond, then = self._expr(expr.cond, ctx), self._expr(expr.then, ctx)
            other = self._expr(expr.other, ctx)
            return lambda f: charge("branch") or (
                then(f) if cond(f) else other(f))
        return _raiser(f"unsupported expression {kind.__name__}")

    def _place(self, name: str, line: int, ctx: _Ctx):
        """``(get, put)`` of a variable; ``put`` converts to its type."""
        hit = ctx.resolve(name)
        if hit is not None:
            slot, conv = hit[0], _converter(hit[1])

            def put(f, value):
                f[slot] = conv(value)
            return operator.itemgetter(slot), put
        globs = self.globals
        conv = _converter(self.global_types.get(name, "double"))

        def get_global(f):
            try:
                return globs[name]
            except KeyError:
                raise InterpError(
                    f"line {line}: undefined variable {name!r}") from None

        def put_global(f, value):
            if name not in globs:
                raise InterpError(
                    f"line {line}: assignment to undefined {name!r}")
            globs[name] = conv(value)
        return get_global, put_global

    def _element(self, expr: A.Index, ctx: _Ctx, write: bool = False):
        """``base[i]...`` reader (a partial index decays to a row view)."""
        name, line, charge = expr.base.name, expr.line, self._charge
        get = self._place(name, line, ctx)[0]
        idx_fns = [self._expr(e, ctx) for e in expr.indices]
        n = len(idx_fns)

        def locate(f):
            """The array and its bounds-checked (maybe partial) index."""
            array = get(f)
            if not isinstance(array, CArray):
                raise InterpError(f"line {line}: {name!r} is not an array")
            # each index charges its address arithmetic before evaluating
            idx = [charge("addr") or int(i(f)) for i in idx_fns]
            data = array.data
            if not (data.ndim == n and min(idx) >= 0
                    and all(map(operator.lt, idx, data.shape))):
                _check_index(data, idx, line, name)
            return array, idx

        if write:
            def store(f, value):
                array, idx = locate(f)
                if array.data.ndim != n:
                    raise InterpError(
                        f"line {line}: cannot assign to a whole row")
                charge("mem_store")
                array.data[tuple(idx)] = value
            return store

        def load(f):
            array, idx = locate(f)
            if array.data.ndim != n:
                return CArray(array.data[tuple(idx)], array.is_float)
            charge("mem_load")
            value = array.data.item(*idx)
            return float(value) if array.is_float else int(value)
        return load

    def _lvalue(self, target: A.Expr, ctx: _Ctx):
        """``(read, write)`` closures for an assignment target."""
        if type(target) is A.Index:
            return (self._element(target, ctx),
                    self._element(target, ctx, write=True))
        if type(target) is not A.Ident:
            bad = _raiser(f"line {target.line}: invalid lvalue")
            return bad, bad
        name, line, charge = target.name, target.line, self._charge
        get, put = self._place(name, line, ctx)

        def read(f):
            charge("scalar_load")
            value = get(f)
            if isinstance(value, CArray):
                raise InterpError(
                    f"line {line}: cannot use array {name!r} as a scalar")
            return value
        return read, lambda f, value: charge("scalar_store") or put(f, value)

    def _apply(self, op: str, line: int) -> Callable:
        """Charging ``(left, right) -> result`` of ``x op y`` / ``x op= y``."""
        if op not in _BINARY:
            return _raiser(f"unsupported operator {op!r}")
        fn, fp_cat = _BINARY[op]
        if fn is _c_div:
            fn = functools.partial(_c_div, line=line, mod=op == "%")
        charge = self._charge

        def apply(left, right):
            both_int = isinstance(left, int) and isinstance(right, int)
            charge("int_op" if both_int else fp_cat)
            return fn(left, right)
        return apply

    def _binop(self, expr: A.BinOp, ctx: _Ctx) -> Callable:
        left, right = self._expr(expr.left, ctx), self._expr(expr.right, ctx)
        charge, op = self._charge, expr.op
        if op in ("&&", "||"):
            short = op == "||"  # the left value that decides alone

            def logical(f):
                charge("branch")
                if bool(left(f)) is short:
                    return int(short)
                return 1 if right(f) else 0
            return logical
        apply = self._apply(op, expr.line)
        return lambda f: apply(left(f), right(f))

    def _unop(self, expr: A.UnOp, ctx: _Ctx) -> Callable:
        op, charge = expr.op, self._charge
        if op in ("++", "--"):
            read, write = self._lvalue(expr.operand, ctx)
            delta, postfix = (1 if op == "++" else -1), expr.postfix

            def bump(f):
                old = read(f)
                charge("int_op" if isinstance(old, int) else "fp_add")
                write(f, old + delta)
                return old if postfix else old + delta
            return bump
        if op not in _UNARY:
            return _raiser(f"unsupported unary {op!r}")
        operand, (fn, fp_cat) = self._expr(expr.operand, ctx), _UNARY[op]

        def unary(f):
            value = operand(f)
            charge("int_op" if isinstance(value, int) else fp_cat)
            return fn(value)
        return unary

    # -- calls -------------------------------------------------------------------
    def _call(self, expr: A.Call, ctx: _Ctx) -> Callable:
        name, line, rec = expr.name, expr.line, self.recorder
        args = [self._expr(a, ctx) for a in expr.args]
        charge, literal = self._charge, expr.args[0] if expr.args else None
        if name in self.program.func_names:
            call = self.call_function
            return lambda f: charge("call") or call(name, [a(f) for a in args])
        if name == "printf":
            def printf(f):
                fmt, values = args[0](f), [arg(f) for arg in args[1:]]
                charge("builtin:printf")
                self.output.append(_printf(fmt, values))
                return 0
            return printf
        if name in BUILTINS:
            fn, key, arity = _MATH[name], f"builtin:{name}", BUILTINS[name]

            def builtin(f):
                values = [arg(f) for arg in args]
                charge(key)
                try:
                    return fn(*values[:arity])
                except ValueError as err:
                    raise InterpError(f"line {line}: {name}: {err}") from None
            return builtin
        if name in COMM_APIS:
            return self._comm(expr, args)
        if name in ("papi_block_begin", "papi_block_end"):
            if not isinstance(literal, A.IntLit):
                return _raiser(f"line {line}: {name} needs int literal")
            mark, bid = getattr(rec, name[len("papi_"):]), int(literal.value)
            return lambda f: mark(bid) or 0
        if name in ("dperf_region_begin", "dperf_region_end"):
            if not isinstance(literal, A.StringLit):
                return _raiser(f"line {line}: {name} needs a string")
            which = name[len("dperf_region_"):]
            return lambda f: rec.region(literal.value, which) or 0
        return _raiser(f"line {line}: unknown function {name!r}")

    def _comm(self, expr: A.Call, args: List[Callable]) -> Callable:
        name, line, comm, rec = expr.name, expr.line, self.comm, self.recorder
        low = name.lower()
        if low in ("p2psap_init", "p2psap_finalize", "p2psap_rank",
                   "p2psap_size"):
            value = {"p2psap_rank": comm.rank, "p2psap_size": comm.size}.get(low, 0)
            return lambda f: value
        if low in ("p2psap_barrier", "mpi_barrier"):
            record = CommRecord(api=name, kind="barrier")
            return lambda f: rec.comm(record) or comm.barrier() or 0
        if low in ("p2psap_allreduce_max", "mpi_allreduce_max"):
            def allreduce(f):
                value = float(args[0](f))
                rec.comm(CommRecord(api=name, kind="allreduce", count=1,
                                    elem_bytes=8))
                return comm.allreduce_max(value)
            return allreduce
        kind = _MESSAGES.get(low)
        if kind is None:
            return _raiser(f"line {line}: comm API {name!r} not handled")
        count_expr = expr.args[2] if len(expr.args) > 2 else None

        def message(f):
            peer, buf = int(args[0](f)), args[1](f)
            if not isinstance(buf, CArray):
                raise InterpError(
                    f"line {line}: {name} argument 1 must be an array")
            if buf.data.ndim != 1:
                raise InterpError(f"line {line}: {name} needs a 1-D buffer "
                                  "(pass a row, e.g. u[i])")
            count = int(args[2](f))
            if count < 0 or count > len(buf.data):
                raise InterpError(f"line {line}: count {count} out of range"
                                  f" for buffer of {len(buf.data)}")
            rec.comm(CommRecord(api=name, kind=kind, peer=peer, count=count,
                                count_expr=count_expr, elem_bytes=8))
            if kind == "recv":
                buf.data[:count] = comm.data_recv(peer, count, tag="m")
            else:
                comm.data_send(peer, buf.data[:count], tag="m")
            return 0
        return message


def _printf(fmt: str, args: List[Any]) -> str:
    """Minimal C printf semantics for trace/debug output."""
    arg_iter = iter(args)

    def repl(match: re.Match) -> str:
        spec, conv = match.group(0), match.group(1)
        if conv == "%":
            return "%"
        try:
            value = next(arg_iter)
        except StopIteration:
            raise InterpError("printf: not enough arguments") from None
        if conv in "dix":
            return (spec[:-1] + conv.replace("i", "d")) % int(value)
        if conv in "ufgGeE":
            return (spec[:-1] + conv.replace("u", "d")) % (
                int(value) if conv == "u" else float(value))
        if conv == "s":
            return spec % str(value)
        return spec  # pragma: no cover

    return _PRINTF_SPEC.sub(repl, fmt)


# --------------------------------------------------------------------------
# Multi-rank execution
# --------------------------------------------------------------------------

@dataclass
class RankRun:
    """Result of one rank's instrumented execution."""

    rank: int
    entries: list
    value: Any
    output: List[str]
    census: Census
    block_exec_counts: Dict[int, int] = field(default_factory=dict)


def _run_rank(program: A.Program, entry: str, args: Sequence[Any],
              comm: Any, block_table: Optional[BlockTable],
              max_steps: Optional[int]) -> RankRun:
    recorder = SkeletonRecorder(comm.rank)
    interp = Interp(program, recorder, comm, block_table, max_steps)
    value = interp.call_function(entry, list(args))
    entries = recorder.finish()
    return RankRun(comm.rank, entries, value, interp.output,
                   recorder.total_census(), recorder.block_exec_counts)


def run_single(
    program: A.Program,
    entry: str,
    args: Sequence[Any] = (),
    block_table: Optional[BlockTable] = None,
    max_steps: Optional[int] = None,
) -> RankRun:
    """Run a program single-rank (rank 0 of 1)."""
    return _run_rank(program, entry, args, NullComm(), block_table, max_steps)


def run_distributed(
    program: A.Program,
    entry: str,
    nprocs: int,
    args: Sequence[Any] | Callable[[int], Sequence[Any]] = (),
    block_table: Optional[BlockTable] = None,
    max_steps: Optional[int] = None,
) -> List[RankRun]:
    """Execute ``nprocs`` ranks with real messaging, one at a time.

    ``args`` is either a fixed argument list or ``rank -> args``.  If
    any rank fails, raises the first failed rank's own error (ranks it
    left blocked fail with the deadlock report).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    baton = _Baton(nprocs)
    results: List[Optional[RankRun]] = [None] * nprocs
    errors: List[Optional[BaseException]] = [None] * nprocs

    def worker(rank: int) -> None:
        baton.locks[rank].acquire()
        try:
            results[rank] = _run_rank(
                program, entry, args(rank) if callable(args) else args,
                RankComm(rank, nprocs, baton), block_table, max_steps)
        except BaseException as err:  # noqa: BLE001 - funneled to caller
            errors[rank] = err
        finally:
            baton.finish(rank)

    threads = [threading.Thread(target=worker, args=(r,), daemon=True,
                                name=f"minic-rank{r}") for r in range(nprocs)]
    for t in threads:
        t.start()
    baton.locks[0].release()
    for t in threads:
        t.join()
    failed = [(r, e) for r, e in enumerate(errors) if e is not None]
    if failed:  # report a rank's own error over the deadlocks it caused
        own = [(r, e) for r, e in failed if not isinstance(e, _Deadlock)]
        rank, err = (own or failed)[0]
        raise InterpError(f"rank {rank} failed: {err}") from err
    return results
