"""Symbol specifications: parsed scalar expressions, trigonometric polynomials,
separable GLT expressions, sampling grids and rearrangement comparison.

A symbol is a measurable function on the unit interval (UNIT domain) or on
[0,1] x [-pi,pi] (RECT domain).  Two symbols count as equal when they have the
same distribution, which is decided here by comparing empirical sample
fractions over a fixed finite family of closed disks.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExprSyntaxError, VariableError

__all__ = [
    "FuncExpr",
    "TrigPoly",
    "GltExpr",
    "SymbolGrid",
    "parse_expr",
    "trig_poly_from_expr",
    "sample_symbol",
    "rearrangement_distance",
    "monotone_rearrangement",
    "symbols_equal_in_distribution",
]

ROLE_VARS = {"a": ("x",), "F": ("t",), "k": ("x", "theta")}

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

# one match per token; the empty `end` match closes every source, and `bad`
# catches the first character that starts no token
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<name>[a-zA-Z]+)|(?P<op>[()+\-*/^])|(?P<bad>\S)|(?P<end>\Z))"
)


def _tokenize(source):
    """List the (kind, text, position) tokens; kinds: num, name, op, end."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    return tokens


# The deepest an expression may nest parentheses, a function call's included.
# The parser recurses seven frames per level and the evaluator at most three,
# which this keeps far inside Python's recursion limit; operator chains fold
# without recursion (`_spine`), so a sum may have any number of terms.
MAX_NESTING = 100


class _Parser:
    """Recursive descent parser for the expression grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | 'i' | var | func '(' expr ')' | '(' expr ')'
    """

    def __init__(self, source, allowed_vars):
        self.source = source
        self.tokens = _tokenize(source)
        self.idx = 0
        self.allowed = allowed_vars
        self.free_vars = set()
        self.depth = 0  # the parentheses open around the token being read

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse(self, role):
        ast = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r}", pos)
        return FuncExpr(self.source, ast, role, frozenset(self.free_vars))

    def _chain(self, ops, operand):
        """operand ((op in `ops`) operand)*, folded to the left."""
        node = operand()
        while True:
            kind, text, _ = self.peek()
            if kind != "op" or text not in ops:
                return node
            self.advance()
            node = ("bin", text, node, operand())

    def expr(self):
        return self._chain("+-", self.term)

    def term(self):
        return self._chain("*/", self.factor)

    def factor(self):
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "num" or "." in text:
                raise ExprSyntaxError("exponent must be an integer", pos)
            self.advance()
            node = ("pow", node, int(text))
        return node

    def group(self, pos):
        """expr ')' after the '(' at pos, at most MAX_NESTING deep."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
        self.depth += 1
        node = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return node

    def base(self):
        kind, text, pos = self.advance()
        if kind == "num":
            return ("const", complex(float(text)))
        if kind == "op" and text == "(":
            return self.group(pos)
        if kind == "name":
            if text == "i":
                return ("const", 1j)
            if text in _FUNCS:
                return ("call", text, self.group(self.expect_op("(")[2]))
            if text in ("x", "theta", "t"):
                if text not in self.allowed:
                    raise VariableError(
                        f"variable {text!r} not allowed here (allowed: {', '.join(self.allowed)})"
                    )
                self.free_vars.add(text)
                return ("var", text)
            raise ExprSyntaxError(f"unknown name {text!r}", pos)
        raise ExprSyntaxError(f"unexpected {text!r}" if text else "unexpected end of input", pos)


def _spine(node):
    """(leaf, [(op, right), ...]) of a chain of binary nodes, folded to the
    left as the parser folds them: leaf op1 right1 op2 right2 ..., walked in a
    loop so that a sum of many terms costs no recursion."""
    steps = []
    while node[0] == "bin":
        steps.append((node[1], node[3]))
        node = node[2]
    return node, steps[::-1]


_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _eval_ast(node, env):
    tag = node[0]
    if tag == "const":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "bin":
        leaf, steps = _spine(node)
        value = _eval_ast(leaf, env)
        for op, right in steps:
            value = _BIN_OPS[op](value, _eval_ast(right, env))
        return value
    if tag == "pow":
        return _eval_ast(node[1], env) ** node[2]
    _, fname, arg = node
    return _FUNCS[fname](_eval_ast(arg, env))


def _ast_to_sexpr(node) -> str:
    """The ast as an s-expression, e.g. `(+ (^ x 2) (sin theta))`."""
    tag = node[0]
    if tag == "const":
        z = node[1]
        # i is the only non-real constant the parser makes
        return format(z.real, "g") if z.imag == 0 else "i"
    if tag == "var":
        return node[1]
    if tag == "bin":
        leaf, steps = _spine(node)
        return ("".join(f"({op} " for op, _ in reversed(steps)) + _ast_to_sexpr(leaf)
                + "".join(f" {_ast_to_sexpr(right)})" for _, right in steps))
    if tag == "pow":
        return f"(^ {_ast_to_sexpr(node[1])} {node[2]})"
    return f"({node[1]} {_ast_to_sexpr(node[2])})"


@dataclass(frozen=True)
class FuncExpr:
    """A parsed scalar expression, evaluable pointwise over numpy arrays."""

    source: str
    ast: tuple
    role: str
    free_vars: frozenset = field(default_factory=frozenset)

    def __call__(self, **values):
        missing = self.free_vars - set(values)
        if missing:
            raise VariableError(f"missing values for {sorted(missing)}")
        env = {name: np.asarray(v, dtype=complex) for name, v in values.items()}
        with np.errstate(all="ignore"):
            out = _eval_ast(self.ast, env)
        return np.asarray(out, dtype=complex)

    def __repr__(self):
        return f"FuncExpr({self.source!r}, role={self.role!r})"


def parse_expr(source: str, role: str) -> FuncExpr:
    """Parse `source` as an expression for the given role.

    Roles fix the allowed variables: 'a' may use x, 'F' may use t, and 'k'
    may use x and theta.  Raises ExprSyntaxError (with position) on malformed
    input and VariableError when a disallowed variable appears.
    """
    if role not in ROLE_VARS:
        raise ValueError(f"role must be one of {sorted(ROLE_VARS)}, got {role!r}")
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(source, ROLE_VARS[role]).parse(role)


def _parse_any(source: str) -> FuncExpr:
    """Parse with every variable allowed (used by the CLI ast printer)."""
    return _Parser(source, ("x", "theta", "t")).parse("k")


def _expr_product(e1: FuncExpr, e2: FuncExpr) -> FuncExpr:
    ast = ("bin", "*", e1.ast, e2.ast)
    return FuncExpr(f"({e1.source})*({e2.source})", ast, e1.role, e1.free_vars | e2.free_vars)


@dataclass(frozen=True)
class TrigPoly:
    """Trigonometric polynomial sum_{k=-d}^{d} f_k e^{ik theta}.

    coeffs holds f_{-d}, ..., f_0, ..., f_d (exactly 2d+1 entries).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coeffs must be a flat array with an odd number of entries")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return (self.coeffs.size - 1) // 2

    def coeff(self, k: int) -> complex:
        d = self.degree
        if abs(k) > d:
            return 0j
        return complex(self.coeffs[k + d])

    @classmethod
    def from_coeff_map(cls, mapping) -> "TrigPoly":
        d = max((abs(k) for k in mapping), default=0)
        c = np.zeros(2 * d + 1, dtype=complex)
        for k, v in mapping.items():
            c[k + d] = v
        return cls(c)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        d = self.degree
        ks = np.arange(-d, d + 1)
        phases = np.exp(1j * np.multiply.outer(theta, ks))
        return phases @ self.coeffs

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = max(self.degree, other.degree)
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d - self.degree : d + self.degree + 1] += self.coeffs
        c[d - other.degree : d + other.degree + 1] += other.coeffs
        return TrigPoly(c)

    def __mul__(self, other) -> "TrigPoly":
        if isinstance(other, TrigPoly):
            # full coefficient convolution, degrees add, no truncation
            return TrigPoly(np.convolve(self.coeffs, other.coeffs))
        return TrigPoly(self.coeffs * complex(other))

    __rmul__ = __mul__


def _theta_samples(f: FuncExpr, quad_points: int) -> np.ndarray:
    """f at the nodes theta_j = -pi + (j + 1/2) 2pi/quad_points."""
    theta = _theta_axis(quad_points)
    if not f.free_vars <= {"theta"}:
        raise VariableError("Fourier coefficients need an expression in theta only")
    return np.broadcast_to(f(theta=theta), theta.shape)


# coefficient parts at or below this magnitude are quadrature roundoff
COEFF_TOL = 1e-12
# the largest relative misfit max|f - T| / max|f| of the extracted polynomial
# T on the check nodes: a trig polynomial of degree <= max_degree fits to
# roundoff (at most 4.2e-16 on the benchmark's factors, seeds 0-9), and
# cos(cos(theta)), whose Fourier series decays like 1/(2^k k!), misfits
# 5.3e-10 at degree 8 and fits from degree 10
FIT_RTOL = 1e-10


def trig_poly_from_expr(f: FuncExpr, max_degree: int = 8) -> TrigPoly:
    """Extract the coefficient table of a trig-polynomial expression.

    Computes k = -max_degree..max_degree from one sampling and one FFT: the
    midpoint rule (1/quad) sum_j f(theta_j) e^{-ik theta_j} for every k at
    once, exact to roundoff for degrees below quad/2.  Zeroes real and
    imaginary parts at or below `COEFF_TOL` and trims the outermost
    coefficients that vanish.

    The polynomial must then match f on m = 2 quad + 1 other midpoints, to
    within FIT_RTOL of max|f| there; otherwise f is not a trig polynomial of
    degree max_degree (a higher degree, a degree that aliases onto the
    extraction nodes, or no polynomial at all) and VariableError names the
    degree.  The polynomial is evaluated there by one inverse FFT of length
    m, in O(m log m), which holds every degree since m > 2 max_degree + 1.
    """
    quad = max(4 * (max_degree + 1), 64)
    vals = _theta_samples(f, quad)
    k = np.arange(-max_degree, max_degree + 1)
    # theta_j = -pi + (j + 1/2) h, so mean(vals e^{-ik theta_j}) is the DFT
    # at k times e^{ik pi} e^{-ik h/2}; e^{ik pi} = (-1)^k is taken exactly
    phase = np.where(k % 2, -1.0, 1.0) * np.exp(-1j * np.pi * k / quad)
    c = np.fft.fft(vals)[k % quad] / quad * phase
    re = np.where(np.abs(c.real) <= COEFF_TOL, 0.0, c.real)
    im = np.where(np.abs(c.imag) <= COEFF_TOL, 0.0, c.imag)
    c = re + 1j * im
    d = int(np.abs(k[c != 0]).max(initial=0))
    m = 2 * quad + 1
    placed = np.zeros(m, dtype=complex)  # the same phases, at m nodes, forwards
    placed[k % m] = c * np.where(k % 2, -1.0, 1.0) * np.exp(1j * np.pi * k / m)
    want = _theta_samples(f, m)
    scale = np.abs(want).max()
    misfit = np.abs(np.fft.ifft(placed) * m - want).max()
    if not misfit <= FIT_RTOL * scale:
        raise VariableError(
            f"not a trig polynomial of degree <= {max_degree}: relative misfit "
            f"{misfit / scale:.1e} above {FIT_RTOL:g} (a higher max_degree may fit)")
    return TrigPoly(c[max_degree - d : max_degree + d + 1])


@dataclass(frozen=True)
class GltExpr:
    """Finite sum of separable terms sum_i a_i(x) f_i(theta).

    Each term pairs an expression in x with a trigonometric polynomial; this
    is the canonical input format for building diagonal-times-Toeplitz
    sequences and their normal forms.
    """

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("GltExpr needs at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        for a, f in self.terms:
            if not isinstance(a, FuncExpr) or not isinstance(f, TrigPoly):
                raise TypeError("terms must be (FuncExpr, TrigPoly) pairs")
            if not a.free_vars <= {"x"}:
                raise VariableError("coefficient expressions may only use x")

    def __call__(self, x, theta):
        x = np.asarray(x, dtype=complex)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(x, theta).shape, dtype=complex)
        for a, f in self.terms:
            out = out + a(x=x) * f(theta)
        return out

    def __add__(self, other: "GltExpr") -> "GltExpr":
        """Sum of two separable-term symbols: term lists concatenate."""
        return GltExpr(self.terms + other.terms)

    def __mul__(self, other) -> "GltExpr":
        """Product with a GltExpr: all pairwise products, trig parts
        convolved so degrees add.  Product with a scalar: each term's trig
        polynomial is scaled, so the coefficient expressions stay as they
        were written."""
        if isinstance(other, GltExpr):
            terms = []
            for a1, f1 in self.terms:
                for a2, f2 in other.terms:
                    terms.append((_expr_product(a1, a2), f1 * f2))
            return GltExpr(tuple(terms))
        return GltExpr(tuple((a, f * other) for a, f in self.terms))

    __rmul__ = __mul__


@dataclass(frozen=True)
class SymbolGrid:
    """Uniform midpoint tensor grid of symbol samples.

    domain 'UNIT' is [0,1]; 'RECT' is [0,1] x [-pi,pi].  The mean of the
    samples approximates the normalized integral over the domain.

    A grid holds one sample per cell, x-major, or, on a RECT grid of
    resolution (nx, nt), nt samples: the values at the theta midpoints of a
    symbol that does not depend on x, each standing for its nx cells.  Every
    sample then stands for the same number of cells, so sample means and
    sample fractions are those of the full grid; `cells` and
    `nonfinite_count` count cells either way.
    """

    domain: str
    resolution: tuple
    samples: np.ndarray
    # the samples are read-only, so one scan at construction serves every
    # later finiteness check and `max_abs`
    nonfinite_count: int = field(init=False, repr=False, compare=False)
    _max_abs: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex).ravel()
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))
        if self.domain not in ("UNIT", "RECT"):
            raise DomainError(f"unknown domain tag {self.domain!r}")
        theta_only = self.domain == "RECT" and self.resolution[-1:] == (s.size,)
        if self.cells != s.size and not theta_only:
            raise ValueError("sample count must equal the product of resolutions "
                             "(or, on a RECT grid, the theta resolution)")
        finite = np.isfinite(s)
        nonfinite = s.size - int(np.count_nonzero(finite))
        # index out the non-finite samples only when there are any: a copy
        # of a fine grid costs megabytes of peak memory
        absolute = np.abs(s[finite] if nonfinite else s)
        object.__setattr__(self, "nonfinite_count", nonfinite * (self.cells // max(s.size, 1)))
        object.__setattr__(self, "_max_abs", float(absolute.max(initial=0.0)))

    @property
    def cells(self) -> int:
        """The number of grid cells, the product of the resolution."""
        return math.prod(self.resolution)

    def max_abs(self) -> float:
        """The largest |k| over the finite samples; 0 when there are none."""
        return self._max_abs

    def min_resolution(self) -> int:
        return min(self.resolution)


def _unit_axis(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _theta_axis(n: int) -> np.ndarray:
    return -np.pi + (np.arange(n) + 0.5) * (2 * np.pi / n)


def sample_symbol(k, domain: str, resolution) -> SymbolGrid:
    """Sample a symbol at the cell midpoints of the uniform tensor grid.

    `k` may be a FuncExpr (role 'a' for UNIT, role 'k' for RECT), a TrigPoly
    (theta only) or a GltExpr.  On a RECT grid, a TrigPoly or a FuncExpr
    without x is evaluated at the nt theta midpoints alone, and the grid
    keeps those nt samples (see `SymbolGrid`).  Singular points propagate as
    non-finite samples rather than raising.
    """
    if isinstance(resolution, int):
        resolution = (resolution,)
    resolution = tuple(int(r) for r in resolution)
    if domain == "UNIT":
        # allow a trailing trivial axis, e.g. (4, 1)
        if len(resolution) == 2 and resolution[1] == 1:
            resolution = (resolution[0],)
        if len(resolution) != 1:
            raise DomainError("UNIT grids take one resolution")
        if resolution[0] < 2:
            raise DomainError("resolution must be at least 2 per axis")
        x = _unit_axis(resolution[0])
        if isinstance(k, FuncExpr):
            if not k.free_vars <= {"x"}:
                raise VariableError("UNIT symbols may only use x")
            vals = np.broadcast_to(k(x=x), x.shape)
        else:
            raise TypeError("UNIT grids need an expression in x")
        return SymbolGrid("UNIT", resolution, np.asarray(vals, dtype=complex))
    if domain != "RECT":
        raise DomainError(f"unknown domain tag {domain!r}")
    if len(resolution) != 2:
        raise DomainError("RECT grids take a resolution per axis")
    if min(resolution) < 1 or max(resolution) < 2:
        raise DomainError("resolution must be at least 2 per axis")
    nx, nt = resolution
    x = _unit_axis(nx)[:, None]
    theta = _theta_axis(nt)
    if isinstance(k, TrigPoly):
        vals = k(theta)
    elif isinstance(k, GltExpr):
        vals = k(x, theta)
    elif isinstance(k, FuncExpr):
        kwargs = {"theta": theta} if "theta" in k.free_vars else {}
        shape = theta.shape
        if "x" in k.free_vars:
            kwargs["x"], shape = x, (nx, nt)
        vals = np.broadcast_to(k(**kwargs), shape)
    else:
        raise TypeError(f"cannot sample object of type {type(k).__name__}")
    return SymbolGrid("RECT", resolution, np.asarray(vals, dtype=complex))


def _grid_samples(obj) -> np.ndarray:
    if isinstance(obj, SymbolGrid):
        return obj.samples
    return np.asarray(obj, dtype=complex).ravel()


def rearrangement_distance(h, k) -> float:
    """Discrepancy between two empirical sample distributions.

    Maximum, over a fixed family of closed disks, of the difference between
    the fractions of samples of each grid falling in the disk.  The family
    puts centers on a 32x32 lattice over the joint bounding box and uses
    radii 2^j * (box diagonal) for j = -5..2.  Symmetric, permutation
    invariant, and 0 when the two sample multisets coincide.
    """
    if isinstance(h, SymbolGrid) and isinstance(k, SymbolGrid) and h.domain != k.domain:
        raise DomainError(f"domain tags differ: {h.domain} vs {k.domain}")
    hs = _grid_samples(h)
    ks = _grid_samples(k)
    if hs.size == 0 or ks.size == 0:
        raise DomainError("empty sample set")
    if not (np.isfinite(hs).all() and np.isfinite(ks).all()):
        raise DomainError("non-finite samples cannot be compared")
    allsamp = np.concatenate([hs, ks])
    re_lo, re_hi = allsamp.real.min(), allsamp.real.max()
    im_lo, im_hi = allsamp.imag.min(), allsamp.imag.max()
    diag = math.hypot(re_hi - re_lo, im_hi - im_lo)
    if diag == 0.0:
        return 0.0
    centers = (
        np.linspace(re_lo, re_hi, 32)[:, None] + 1j * np.linspace(im_lo, im_hi, 32)[None, :]
    ).ravel()
    radii = diag * 2.0 ** np.arange(-5, 3, dtype=float)
    worst = 0.0
    for start in range(0, centers.size, 64):
        c = centers[start : start + 64, None]
        dh = np.abs(hs[None, :] - c)
        dk = np.abs(ks[None, :] - c)
        for r in radii:
            fh = np.count_nonzero(dh <= r, axis=1) / hs.size
            fk = np.count_nonzero(dk <= r, axis=1) / ks.size
            gap = float(np.abs(fh - fk).max())
            if gap > worst:
                worst = gap
    return worst


def _cell_count(obj) -> int:
    """The cells a grid covers, or the size of a sample vector."""
    return obj.cells if isinstance(obj, SymbolGrid) else _grid_samples(obj).size


def symbols_equal_in_distribution(h, k) -> bool:
    """Statistical-noise-floor test: distance below 0.5/sqrt(n), n the
    smaller of the two cell counts (a sample vector counts its samples)."""
    n = min(_cell_count(h), _cell_count(k))
    return rearrangement_distance(h, k) < 0.5 / math.sqrt(n)


def monotone_rearrangement(k) -> np.ndarray:
    """Sorted (ascending) sample vector: the discrete quantile function.

    Input samples must be real; pass abs(samples) for complex data.  The
    result has the same empirical distribution as the input, one entry per
    grid cell.
    """
    s = _grid_samples(k)
    if np.abs(s.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(s).max(initial=0.0)):
        raise DomainError("samples must be real; pass their absolute values")
    return np.repeat(np.sort(s.real), _cell_count(k) // max(s.size, 1))
