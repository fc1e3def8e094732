"""Shared lowering and per-block emitters for code generation.

``lower(diagram)`` compiles a dataflow diagram down to the shared
:class:`~repro.core.plan.ExecutionPlan` IR (the *same* plan the
interpreter executes, so generated code and simulation agree on
evaluation order by construction) and produces a :class:`LoweredModel`:
the plan plus named signals, state layout, and per-node emitted code.

Emitters build *portable expressions* through a :class:`Lang` object, so
one emitter serves the Python, C and vectorised-NumPy backends.  Every
block type of :mod:`repro.dataflow` that can be expressed without dynamic
containers is supported; anything else raises
:class:`UnsupportedBlockError` naming the block, which is the documented
extension point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.network import FlatNetwork
from repro.core.plan import ExecutionPlan
from repro.core.streamer import Streamer
from repro.dataflow.diagram import Diagram


class CodegenError(Exception):
    """Raised on unlowerable models."""


class UnsupportedBlockError(CodegenError):
    """Raised when a block type has no emitter."""


# ----------------------------------------------------------------------
# target-language abstraction
# ----------------------------------------------------------------------
class Lang:
    """Portable expression construction; subclassed per target."""

    name = "abstract"

    def num(self, value: float) -> str:
        return repr(float(value))

    def min(self, a: str, b: str) -> str:
        raise NotImplementedError

    def max(self, a: str, b: str) -> str:
        raise NotImplementedError

    def abs(self, a: str) -> str:
        raise NotImplementedError

    def sin(self, a: str) -> str:
        raise NotImplementedError

    def floor(self, a: str) -> str:
        raise NotImplementedError

    def fmod(self, a: str, b: str) -> str:
        raise NotImplementedError

    def logical_and(self, a: str, b: str) -> str:
        raise NotImplementedError

    def if_expr(self, cond: str, then: str, otherwise: str) -> str:
        raise NotImplementedError


class PyLang(Lang):
    name = "python"

    def min(self, a, b):
        return f"min({a}, {b})"

    def max(self, a, b):
        return f"max({a}, {b})"

    def abs(self, a):
        return f"abs({a})"

    def sin(self, a):
        return f"math.sin({a})"

    def floor(self, a):
        return f"math.floor({a})"

    def fmod(self, a, b):
        return f"math.fmod({a}, {b})"

    def logical_and(self, a, b):
        return f"({a}) and ({b})"

    def if_expr(self, cond, then, otherwise):
        return f"(({then}) if ({cond}) else ({otherwise}))"


#: the libm functions :class:`CLang` emits, as C declarations.  The
#: shared-object kernels declare exactly these instead of including
#: ``<math.h>``, which spares every build the header's preprocessing;
#: their builds fail on an implicit declaration, so a function added to
#: :class:`CLang` but missing here cannot slip through
C_LIBM_DECLARATIONS = (
    "double fmin(double, double);",
    "double fmax(double, double);",
    "double fabs(double);",
    "double sin(double);",
    "double floor(double);",
    "double fmod(double, double);",
)


class CLang(Lang):
    name = "c"

    def min(self, a, b):
        return f"fmin({a}, {b})"

    def max(self, a, b):
        return f"fmax({a}, {b})"

    def abs(self, a):
        return f"fabs({a})"

    def sin(self, a):
        return f"sin({a})"

    def floor(self, a):
        return f"floor({a})"

    def fmod(self, a, b):
        return f"fmod({a}, {b})"

    def logical_and(self, a, b):
        return f"({a}) && ({b})"

    def if_expr(self, cond, then, otherwise):
        return f"(({cond}) ? ({then}) : ({otherwise}))"


class CBatchLang(CLang):
    """The C dialect of the batch backend's swept-parameter contract.

    Identical to :class:`CLang` (``name`` stays ``"c"`` so sampled
    blocks keep their statement-level sync replicas) except that ``num``
    preserves *symbolic* parameters exactly like :class:`NumpyLang`:
    a :class:`~repro.core.batch.SweepVar` lowers to its ``P[j]`` symbol,
    which the batch kernel resolves against the per-instance parameter
    row instead of a folded literal.
    """

    def num(self, value):
        symbol = getattr(value, "symbol", None)
        if symbol is not None:
            return symbol
        return repr(float(value))


class NumpyLang(Lang):
    """Vectorised expressions over ``(n,)`` instance axes.

    Used by the batch backend (:mod:`repro.core.batch`): every signal is
    an array over instances, so selections become :func:`numpy.where`
    and comparisons element-wise masks.  ``num`` preserves *symbolic*
    parameters (objects carrying a ``symbol`` attribute, e.g. the batch
    backend's swept parameters) instead of folding them to literals.
    """

    name = "numpy"

    def num(self, value):
        symbol = getattr(value, "symbol", None)
        if symbol is not None:
            return symbol
        return repr(float(value))

    def min(self, a, b):
        return f"np.minimum({a}, {b})"

    def max(self, a, b):
        return f"np.maximum({a}, {b})"

    def abs(self, a):
        return f"np.abs({a})"

    def sin(self, a):
        return f"np.sin({a})"

    def floor(self, a):
        return f"np.floor({a})"

    def fmod(self, a, b):
        return f"np.fmod({a}, {b})"

    def logical_and(self, a, b):
        return f"np.logical_and({a}, {b})"

    def if_expr(self, cond, then, otherwise):
        return f"np.where({cond}, {then}, {otherwise})"


# ----------------------------------------------------------------------
# lowered model
# ----------------------------------------------------------------------
@dataclass
class BlockCode:
    """Emitted code fragments for one block."""

    #: assignments computing the block's output signals (topological slot)
    output_lines: List[str] = field(default_factory=list)
    #: one expression per continuous state component (dstate/dt)
    deriv_exprs: List[str] = field(default_factory=list)
    #: held-variable names and initial values (sampled blocks)
    held_vars: List[Tuple[str, float]] = field(default_factory=list)
    #: statements run once per major step, after integration
    sync_lines: List[str] = field(default_factory=list)
    #: statement-level sync replica ``(indent, line)`` rows reproducing
    #: the live block's ``on_sync`` arithmetic exactly (scalar kernel
    #: backends); empty for the vectorised target, which keeps the
    #: branch-free expression form in :attr:`sync_lines`
    sync_stmts: List[Tuple[int, str]] = field(default_factory=list)
    #: held-variable name -> live-block attribute carrying the same
    #: register (lets a kernel refresh its held copies from the
    #: interpreter-owned blocks, e.g. the hybrid scheduler's rhs bridge)
    held_attrs: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class LoweredModel:
    """Everything a backend needs to emit a complete program."""

    name: str
    #: the compiled IR backends iterate (node order == evaluation order)
    plan: ExecutionPlan
    state_names: List[str]
    initial_state: List[float]
    signal_names: List[str]
    #: per-node emitted code, keyed by :attr:`PlanNode.index`
    code: Dict[int, BlockCode]
    records: List[Tuple[str, str]]  # (label, signal var)

    @property
    def order(self) -> List[Streamer]:
        """The leaves in evaluation order (derived from the plan)."""
        return [node.leaf for node in self.plan.nodes]


def _san(name: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in name)
    return out if not out[:1].isdigit() else f"b_{out}"


class _Ctx:
    """Naming context handed to emitters (driven by the plan's tables)."""

    def __init__(self, plan: ExecutionPlan, lang: Lang) -> None:
        self.plan = plan
        self.lang = lang
        self._input_of: Dict[Tuple[int, str], str] = {}
        for edge in plan.edges:
            if edge.is_observer:
                continue
            resolved = edge.resolved
            self._input_of[
                (id(resolved.dst_leaf), resolved.dst_port.name)
            ] = self.signal(resolved.src_leaf, resolved.src_port.name)

    @staticmethod
    def signal(leaf: Streamer, port: str) -> str:
        return f"v_{_san(leaf.name)}_{_san(port)}"

    def input(self, leaf: Streamer, port: str) -> str:
        """Signal var feeding an IN port ('0.0' if unconnected)."""
        return self._input_of.get((id(leaf), port), "0.0")

    def state(self, leaf: Streamer, index: int) -> str:
        node = self.plan.node_of(leaf)
        if index >= node.hi - node.lo:
            raise CodegenError(
                f"{leaf.path()}: state index {index} out of range"
            )
        return f"x[{node.lo + index}]"

    def held(self, leaf: Streamer, suffix: str = "held") -> str:
        return f"h_{_san(leaf.name)}_{suffix}"


Emitter = Callable[[Streamer, _Ctx], BlockCode]
_EMITTERS: Dict[str, Emitter] = {}


def register_emitter(class_name: str):
    """Register an emitter for a block class (extension point)."""

    def deco(fn: Emitter) -> Emitter:
        _EMITTERS[class_name] = fn
        return fn

    return deco


# ----------------------------------------------------------------------
# emitters: sources
# ----------------------------------------------------------------------
@register_emitter("Constant")
def _emit_constant(block, ctx):
    out = ctx.signal(block, "out")
    return BlockCode(
        output_lines=[f"{out} = {ctx.lang.num(block.params['value'])}"]
    )


@register_emitter("Step")
def _emit_step(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    expr = lang.if_expr(
        f"t >= {lang.num(p['t_step'])}",
        f"{lang.num(p['offset'])} + {lang.num(p['amplitude'])}",
        lang.num(p["offset"]),
    )
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("Ramp")
def _emit_ramp(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    shifted = f"(t - {lang.num(p['t_start'])})"
    expr = f"{lang.num(p['slope'])} * {lang.max(shifted, '0.0')}"
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("Sine")
def _emit_sine(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    two_pi_f = 2.0 * 3.141592653589793 * p["freq"]
    angle = f"{lang.num(two_pi_f)} * t + {lang.num(p['phase'])}"
    expr = (
        f"{lang.num(p['amplitude'])} * {lang.sin(angle)}"
        f" + {lang.num(p['offset'])}"
    )
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("Pulse")
def _emit_pulse(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    phase = f"{lang.fmod('t', lang.num(p['period']))} / {lang.num(p['period'])}"
    expr = lang.if_expr(
        f"({phase}) < {lang.num(p['duty'])}", lang.num(p["amplitude"]), "0.0"
    )
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("TimeSource")
def _emit_timesource(block, ctx):
    out = ctx.signal(block, "out")
    return BlockCode(
        output_lines=[f"{out} = t * {ctx.lang.num(block.params['scale'])}"]
    )


# ----------------------------------------------------------------------
# emitters: arithmetic
# ----------------------------------------------------------------------
@register_emitter("Gain")
def _emit_gain(block, ctx):
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    return BlockCode(
        output_lines=[f"{out} = {ctx.lang.num(block.params['k'])} * {u}"]
    )


@register_emitter("Bias")
def _emit_bias(block, ctx):
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    return BlockCode(
        output_lines=[f"{out} = {u} + {ctx.lang.num(block.params['bias'])}"]
    )


@register_emitter("Sum")
def _emit_sum(block, ctx):
    out = ctx.signal(block, "out")
    terms = []
    for index, sign in enumerate(block.params["signs"]):
        u = ctx.input(block, f"in{index + 1}")
        terms.append(f"{'+' if sign == '+' else '-'} {u}")
    return BlockCode(output_lines=[f"{out} = {' '.join(terms)}"])


@register_emitter("Product")
def _emit_product(block, ctx):
    out = ctx.signal(block, "out")
    factors = " * ".join(
        ctx.input(block, f"in{i + 1}") for i in range(block.params["n"])
    )
    return BlockCode(output_lines=[f"{out} = {factors}"])


@register_emitter("Abs")
def _emit_abs(block, ctx):
    out = ctx.signal(block, "out")
    return BlockCode(
        output_lines=[f"{out} = {ctx.lang.abs(ctx.input(block, 'in'))}"]
    )


# ----------------------------------------------------------------------
# emitters: nonlinearities
# ----------------------------------------------------------------------
@register_emitter("Saturation")
def _emit_saturation(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    expr = lang.min(
        lang.num(p["upper"]), lang.max(lang.num(p["lower"]), u)
    )
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("DeadZone")
def _emit_deadzone(block, ctx):
    lang = ctx.lang
    w = lang.num(block.params["width"])
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    expr = lang.if_expr(
        f"{u} > {w}", f"{u} - {w}",
        lang.if_expr(f"{u} < -{w}", f"{u} + {w}", "0.0"),
    )
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("Quantizer")
def _emit_quantizer(block, ctx):
    lang = ctx.lang
    step = lang.num(block.params["step"])
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    expr = f"{step} * {lang.floor(f'{u} / {step} + 0.5')}"
    return BlockCode(output_lines=[f"{out} = {expr}"])


# ----------------------------------------------------------------------
# emitters: dynamics
# ----------------------------------------------------------------------
@register_emitter("Integrator")
def _emit_integrator(block, ctx):
    lang = ctx.lang
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    x = ctx.state(block, 0)
    y = x
    deriv = u
    if block.upper is not None:
        y = lang.min(lang.num(block.upper), y)
        deriv = lang.if_expr(
            lang.logical_and(
                f"{x} >= {lang.num(block.upper)}", f"{u} > 0.0"
            ),
            "0.0", deriv,
        )
    if block.lower is not None:
        y = lang.max(lang.num(block.lower), y)
        deriv = lang.if_expr(
            lang.logical_and(
                f"{x} <= {lang.num(block.lower)}", f"{u} < 0.0"
            ),
            "0.0", deriv,
        )
    return BlockCode(
        output_lines=[f"{out} = {y}"], deriv_exprs=[deriv]
    )


@register_emitter("FirstOrderLag")
def _emit_lag(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    x = ctx.state(block, 0)
    return BlockCode(
        output_lines=[f"{out} = {x}"],
        deriv_exprs=[
            f"({lang.num(p['k'])} * {u} - {x}) / {lang.num(p['tau'])}"
        ],
    )


@register_emitter("SecondOrderSystem")
def _emit_pt2(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    x0, x1 = ctx.state(block, 0), ctx.state(block, 1)
    omega2 = lang.num(p["omega"] ** 2)
    damp = lang.num(2.0 * p["zeta"] * p["omega"])
    return BlockCode(
        output_lines=[f"{out} = {x0}"],
        deriv_exprs=[
            x1,
            f"{omega2} * ({lang.num(p['k'])} * {u} - {x0}) - {damp} * {x1}",
        ],
    )


@register_emitter("PID")
def _emit_pid(block, ctx):
    lang = ctx.lang
    p = block.params
    out = ctx.signal(block, "out")
    e = ctx.input(block, "in")
    integral, e_filt = ctx.state(block, 0), ctx.state(block, 1)
    de = f"(({e}) - {e_filt}) / {lang.num(p['tf'])}"
    raw = (
        f"{lang.num(p['kp'])} * ({e}) + {lang.num(p['ki'])} * {integral} "
        f"+ {lang.num(p['kd'])} * ({de})"
    )
    saturated = raw
    if block.u_max is not None:
        saturated = lang.min(lang.num(block.u_max), saturated)
    if block.u_min is not None:
        saturated = lang.max(lang.num(block.u_min), saturated)
    d_integral = e
    if block.u_max is not None or block.u_min is not None:
        d_integral = lang.if_expr(
            lang.logical_and(
                f"({raw}) != ({saturated})", f"({raw}) * ({e}) > 0.0"
            ),
            "0.0", e,
        )
    return BlockCode(
        output_lines=[f"{out} = {saturated}"],
        deriv_exprs=[d_integral, de],
    )


@register_emitter("TransferFunction")
def _emit_tf(block, ctx):
    lang = ctx.lang
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    n = block.n
    states = [ctx.state(block, i) for i in range(n)]
    y_terms = [f"{lang.num(block.d)} * {u}"] if block.d else []
    for i, coeff in enumerate(block.c[::-1]):
        if coeff:
            y_terms.append(f"{lang.num(coeff)} * {states[i]}")
    y_expr = " + ".join(y_terms) if y_terms else "0.0"
    derivs = [states[i + 1] for i in range(n - 1)] if n > 1 else []
    last_terms = [u]
    for i, coeff in enumerate(block.a[::-1]):
        if coeff:
            last_terms.append(f"- {lang.num(coeff)} * {states[i]}")
    if n >= 1:
        derivs.append(" ".join(last_terms))
    return BlockCode(output_lines=[f"{out} = {y_expr}"], deriv_exprs=derivs)


@register_emitter("StateSpace")
def _emit_ss(block, ctx):
    lang = ctx.lang
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    n = block.a.shape[0]
    states = [ctx.state(block, i) for i in range(n)]
    y_terms = [
        f"{lang.num(block.c[i])} * {states[i]}"
        for i in range(n) if block.c[i]
    ]
    if block.d:
        y_terms.append(f"{lang.num(block.d)} * {u}")
    derivs = []
    for i in range(n):
        terms = [
            f"{lang.num(block.a[i, j])} * {states[j]}"
            for j in range(n) if block.a[i, j]
        ]
        if block.b[i]:
            terms.append(f"{lang.num(block.b[i])} * {u}")
        derivs.append(" + ".join(terms) if terms else "0.0")
    return BlockCode(
        output_lines=[
            f"{out} = {' + '.join(y_terms) if y_terms else '0.0'}"
        ],
        deriv_exprs=derivs,
    )


# ----------------------------------------------------------------------
# emitters: sampled blocks (held state + sync updates)
# ----------------------------------------------------------------------
def _next_sample_expr(lang: Lang, ts: str) -> str:
    # round t to the nearest grid index before advancing, so a time a few
    # ulps below a grid point does not cause a double sample
    ratio = f"t / {ts} + 0.5"
    return f"({lang.floor(ratio)} + 1.0) * {ts}"


def _sampled_sync_stmts(
    lang: Lang, nxt: str, ts: str, eps: str, body: List[str]
) -> List[Tuple[int, str]]:
    """Statement replica of :meth:`SampledBlock.on_sync` for one block.

    ``body`` holds the sample assignments; the clock walk
    (``while nxt <= t + eps: nxt += ts``) is appended.  Only the scalar
    python/c targets get a replica — the vectorised target keeps the
    branch-free :attr:`BlockCode.sync_lines` form.
    """
    if lang.name == "python":
        stmts: List[Tuple[int, str]] = [(0, f"if t + {eps} >= {nxt}:")]
        stmts.extend((1, line) for line in body)
        stmts.append((1, f"while {nxt} <= t + {eps}:"))
        stmts.append((2, f"{nxt} = {nxt} + {ts}"))
        return stmts
    if lang.name == "c":
        stmts = [(0, f"if (t + {eps} >= {nxt}) {{")]
        stmts.extend((1, f"{line};") for line in body)
        stmts.append((1, f"while ({nxt} <= t + {eps}) {{"))
        stmts.append((2, f"{nxt} = {nxt} + {ts};"))
        stmts.append((1, "}"))
        stmts.append((0, "}"))
        return stmts
    return []


@register_emitter("ZeroOrderHold")
def _emit_zoh(block, ctx):
    lang = ctx.lang
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    held = ctx.held(block)
    nxt = ctx.held(block, "next")
    ts = lang.num(block.params["ts"])
    cond = f"t + 1e-12 >= {nxt}"
    advance = _next_sample_expr(lang, ts)
    eps = lang.num(1e-9 * float(block.params["ts"]))
    return BlockCode(
        output_lines=[f"{out} = {held}"],
        held_vars=[(held, 0.0), (nxt, 0.0)],
        sync_lines=[
            f"{held} = {lang.if_expr(cond, u, held)}",
            f"{nxt} = {lang.if_expr(cond, advance, nxt)}",
        ],
        sync_stmts=_sampled_sync_stmts(
            lang, nxt, ts, eps, [f"{held} = {u}"]
        ),
        held_attrs=[(held, "_held"), (nxt, "_next_sample")],
    )


@register_emitter("UnitDelay")
def _emit_unit_delay(block, ctx):
    lang = ctx.lang
    out = ctx.signal(block, "out")
    u = ctx.input(block, "in")
    held = ctx.held(block)
    store = ctx.held(block, "store")
    nxt = ctx.held(block, "next")
    ts = lang.num(block.params["ts"])
    cond = f"t + 1e-12 >= {nxt}"
    advance = _next_sample_expr(lang, ts)
    eps = lang.num(1e-9 * float(block.params["ts"]))
    return BlockCode(
        output_lines=[f"{out} = {held}"],
        held_vars=[(held, 0.0), (store, block._store), (nxt, 0.0)],
        sync_lines=[
            f"{held} = {lang.if_expr(cond, store, held)}",
            f"{store} = {lang.if_expr(cond, u, store)}",
            f"{nxt} = {lang.if_expr(cond, advance, nxt)}",
        ],
        sync_stmts=_sampled_sync_stmts(
            lang, nxt, ts, eps,
            [f"{held} = {store}", f"{store} = {u}"],
        ),
        held_attrs=[
            (held, "_held"), (store, "_store"), (nxt, "_next_sample"),
        ],
    )


# ----------------------------------------------------------------------
# emitters: optimizer-synthesised leaves (repro.core.opt)
# ----------------------------------------------------------------------
@register_emitter("FoldedBlock")
def _emit_folded(block, ctx):
    # the folded boundary keeps the original block's name, so its frozen
    # outputs land in exactly the signal vars consumers already reference
    return BlockCode(output_lines=[
        f"{ctx.signal(block, name)} = {ctx.lang.num(value)}"
        for name, value in block.scalar_values()
    ])


@register_emitter("FusedChain")
def _emit_fused(block, ctx):
    lang = ctx.lang
    # the incoming edge still names the original head leaf, so the input
    # lookup must key on it rather than on the fused node
    expr = ctx.input(block.head_leaf, block.in_pad.name)
    if block.affine is not None:  # O2: composed a*v + b
        a, b = block.affine
        expr = f"{lang.num(a)} * ({expr}) + {lang.num(b)}"
    else:  # O1: replay each member's op in order
        for spec in block.specs:
            kind = spec[0]
            if kind == "gain":
                expr = f"{lang.num(spec[1])} * ({expr})"
            elif kind == "bias":
                expr = f"({expr}) + {lang.num(spec[1])}"
            else:  # sum over the driven slot plus frozen slots
                terms = []
                for sign, frozen in spec[1]:
                    term = (
                        f"({expr})" if frozen is None else lang.num(frozen)
                    )
                    terms.append(f"{'+' if sign == '+' else '-'} {term}")
                expr = f"({' '.join(terms)})"
    out = ctx.signal(block, block.out_pad.name)
    return BlockCode(output_lines=[f"{out} = {expr}"])


@register_emitter("Scope")
def _emit_scope(block, ctx):
    return BlockCode()  # recording handled by the backend


@register_emitter("Terminator")
def _emit_terminator(block, ctx):
    return BlockCode()


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def lower(
    diagram: Diagram,
    lang: Lang,
    records: Optional[List[str]] = None,
    opt_level: int = 0,
    opt_config=None,
) -> LoweredModel:
    """Compile ``diagram`` to its ExecutionPlan and emit code for ``lang``.

    ``records`` is a list of ``"block.port"`` paths to record each step;
    defaults to every Scope input and every dangling leaf OUT port.

    ``opt_level`` / ``opt_config`` run the :mod:`repro.core.opt` pass
    pipeline over the plan before emission; explicitly recorded ports are
    protected so their signals survive rewriting.
    """
    diagram.finalise()
    network = FlatNetwork([diagram])
    return lower_network(
        network, lang, records=records,
        opt_level=opt_level, opt_config=opt_config,
        name=diagram.name, port_at=diagram.port_at,
    )


def lower_network(
    network: FlatNetwork,
    lang: Lang,
    records: Optional[List[str]] = None,
    opt_level: int = 0,
    opt_config=None,
    name: str = "network",
    port_at: Optional[Callable[[str], Any]] = None,
) -> LoweredModel:
    """Lower an already-flattened network (the execution-backend path).

    ``port_at`` resolves ``"block.port"`` record paths (a diagram's
    ``port_at`` method); without it only the default Scope records are
    available.
    """
    from repro.core.opt import resolve_config

    config = resolve_config(opt_level, opt_config)
    protect = []
    if config.is_active and records:
        if port_at is None:
            raise CodegenError(
                "explicit records on an optimized plan need a port_at "
                "resolver to protect the recorded pads"
            )
        protect = [port_at(path) for path in records]
    plan = network.plan(opt_config=config, protect=protect)
    return lower_plan(
        plan, lang,
        initial_state=[float(v) for v in network.initial_state()],
        records=records, name=name, port_at=port_at,
    )


def lower_plan(
    plan: ExecutionPlan,
    lang: Lang,
    initial_state: List[float],
    records: Optional[List[str]] = None,
    name: str = "plan",
    port_at: Optional[Callable[[str], Any]] = None,
) -> LoweredModel:
    """Emit code for an already-compiled (possibly optimized or
    thread-partitioned) plan.  The caller owns plan compilation and pad
    protection; this is the entry point the execution backends and the
    hybrid scheduler's kernel bridge use."""
    ctx = _Ctx(plan, lang)
    code: Dict[int, BlockCode] = {}
    for node in plan.nodes:
        emitter = _EMITTERS.get(type(node.leaf).__name__)
        if emitter is None:
            raise UnsupportedBlockError(
                f"no code emitter for block type "
                f"{type(node.leaf).__name__!r} ({node.leaf.path()}); "
                f"supported: {sorted(_EMITTERS)}"
            )
        code[node.index] = emitter(node.leaf, ctx)

    state_names: List[str] = []
    for node in plan.nodes:
        for i in range(node.hi - node.lo):
            state_names.append(f"{_san(node.leaf.name)}_{i}")

    signal_names = sorted({
        ctx.signal(node.leaf, port.name)
        for node in plan.nodes
        for port in node.leaf.dports.values()
        if port.is_out
    })

    record_pairs: List[Tuple[str, str]] = []
    if records:
        if port_at is None:
            raise CodegenError(
                "explicit record paths need a port_at resolver"
            )
        for path in records:
            port = port_at(path)
            if port.is_out:
                record_pairs.append((path, ctx.signal(port.owner, port.name)))
            else:
                record_pairs.append((path, ctx.input(port.owner, port.name)))
    else:
        for node in plan.nodes:
            if type(node.leaf).__name__ == "Scope":
                for port in node.leaf.dports.values():
                    record_pairs.append((
                        f"{node.leaf.name}.{port.name}",
                        ctx.input(node.leaf, port.name),
                    ))

    return LoweredModel(
        name=name,
        plan=plan,
        state_names=state_names,
        initial_state=list(initial_state),
        signal_names=signal_names,
        code=code,
        records=record_pairs,
    )
