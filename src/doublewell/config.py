"""Flat, line-oriented experiment configuration.

Format: `[section]` headers followed by `key = value` lines; `#` starts
a comment; blank lines ignored.  Unknown sections or keys, and a key set
twice, are rejected with the offending line number.  Coefficient values
are expressions in the element-center coordinates `x` (and `y` in 2D);
matrix-valued coefficients list their packed components separated by
`;` (1D: xx; 2D: xx; xy; yy).  An expression may hold numbers, + - * / **,
unary minus, one comparison per term, x, y, pi and calls of where (three
arguments), minimum and maximum (two), abs, sign, sin, cos, exp and sqrt
(one); anything else, a function name without its call included, is
rejected without being evaluated.

Sections and keys (all optional, defaults in parentheses):

    [mesh]         dim (1), extents ("1.0", one float per axis),
                   resolution (64), levels (1)
    [coefficients] a ("1.0"), b ("1.0"), C ("0.0"), D ("0.0")
    [strategy]     seeds ("laminate zero"), budget (50)
    [run]          window (8), seed (0)

The output directory is not a key: `doublewell solve --outdir` names it,
so that the report, which echoes the config, depends on the config alone.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field

import numpy as np

from . import descent, energy, mesh as meshmod
from .errors import ConfigurationError

# each function an expression may call, and its number of arguments
_EXPR_FUNCS = {
    "where": (np.where, 3), "minimum": (np.minimum, 2),
    "maximum": (np.maximum, 2), "abs": (np.abs, 1), "sign": (np.sign, 1),
    "sin": (np.sin, 1), "cos": (np.cos, 1), "exp": (np.exp, 1),
    "sqrt": (np.sqrt, 1),
}


@dataclass
class RunConfig:
    dim: int = 1
    extents: tuple = (1.0,)
    resolution: int = 64
    levels: int = 1
    a_expr: str = "1.0"
    b_expr: str = "1.0"
    C_expr: str = "0.0"
    D_expr: str = "0.0"
    seeds: tuple = ("laminate", "zero")
    budget: int = 50
    window: int = 8
    seed: int = 0
    raw_lines: tuple = field(default_factory=tuple, repr=False)

    def build_finest_mesh(self):
        """The finest level alone: `resolution` cells per axis, doubled for
        each further level.  It must split into whole windows."""
        mesh = meshmod.build_mesh(
            self.extents, (self.resolution * 2 ** (self.levels - 1),)
            * self.dim, dim=self.dim)
        if np.any(mesh.shape % self.window):
            raise ConfigurationError(
                f"window {self.window} does not divide the finest "
                f"element counts {tuple(mesh.shape.tolist())}")
        return mesh

    def build_meshes(self):
        """One mesh per refinement level, coarsest first: the finest mesh
        and its `coarse` meshes, the multigrid solver's levels too."""
        meshes = [self.build_finest_mesh()]
        for _ in range(self.levels - 1):
            meshes.append(meshes[-1].coarse)
        return meshes[::-1]

    def build_coeffs(self, mesh):
        """Evaluate the coefficient expressions at element centers."""
        a = _eval_expr(self.a_expr, mesh, "a")
        b = _eval_expr(self.b_expr, mesh, "b")
        C = _eval_matrix(self.C_expr, mesh, "C")
        D = _eval_matrix(self.D_expr, mesh, "D")
        return energy.CoefficientSet(mesh, a, b, C, D)

    def echo(self):
        """Every config key's value by section, in `_SCHEMA` order, tuples
        as lists: the report's `config` block."""
        def value(section, key):
            val = getattr(self, _field_name(section, key))
            return list(val) if isinstance(val, tuple) else val
        return {section: {key: value(section, key) for key in keys}
                for section, keys in _SCHEMA.items()}


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
        ast.Mult: operator.mul, ast.Div: operator.truediv,
        ast.Pow: operator.pow, ast.Lt: operator.lt, ast.LtE: operator.le,
        ast.Gt: operator.gt, ast.GtE: operator.ge, ast.Eq: operator.eq,
        ast.NotEq: operator.ne}


def _eval_node(node, names):
    """Evaluate an expression tree made only of what the module docstring
    allows (`names` holds x, y and pi); raise ValueError on any other node."""
    def ev(n):
        return _eval_node(n, names)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        return _OPS[type(node.op)](ev(node.left), ev(node.right))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -ev(node.operand)
    if isinstance(node, ast.Compare) and len(node.ops) == 1 \
            and type(node.ops[0]) in _OPS:
        return _OPS[type(node.ops[0])](ev(node.left), ev(node.comparators[0]))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCS and not node.keywords):
        func, arity = _EXPR_FUNCS[node.func.id]
        if len(node.args) == arity:
            return func(*map(ev, node.args))
        raise ValueError(f"{node.func.id} takes {arity} argument(s)")
    raise ValueError(f"{type(node).__name__} is not allowed")


def _eval_expr(expr, mesh, key):
    centers = mesh.centers.view()
    centers.flags.writeable = False   # an expression reads the mesh only
    names = {"pi": np.pi, **dict(zip("xy", centers.T))}
    try:
        # no NumPy warning: CoefficientSet rejects a value that is not finite
        with np.errstate(all="ignore"):
            val = _eval_node(ast.parse(expr, mode="eval").body, names)
        return np.broadcast_to(np.asarray(val, float), (mesh.n_elem,)).copy()
    except Exception as exc:
        raise ConfigurationError(
            f"cannot evaluate expression for {key!r}: {exc}") from exc


def _eval_matrix(expr, mesh, key):
    parts = [p.strip() for p in expr.split(";")]
    if len(parts) == 1 and mesh.n_comp == 3:
        parts = [parts[0], "0.0", parts[0]]   # scalar means that * identity
    if len(parts) != mesh.n_comp:
        raise ConfigurationError(
            f"{key!r} needs {mesh.n_comp} packed components "
            f"(got {len(parts)})")
    cols = [_eval_expr(p, mesh, key) for p in parts]
    return np.stack(cols, axis=1)


def _parse_int(text, key, line_no, minimum):
    try:
        val = int(text)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: {key!r} must be an integer, got {text!r}")
    if val < minimum:
        raise ConfigurationError(
            f"line {line_no}: {key!r} must be >= {minimum}, got {val}")
    return val


def _parse_extents(text, key, line_no):
    try:
        vals = tuple(float(t) for t in text.split())
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: {key!r} must be floats, got {text!r}")
    if not vals or not all(0 < v < np.inf for v in vals):
        raise ConfigurationError(
            f"line {line_no}: {key!r} must be positive finite floats")
    return vals


def _parse_seeds(text, key, line_no):
    specs = tuple(text.split())
    if not specs:
        raise ConfigurationError(f"line {line_no}: {key!r} must list at "
                                 "least one seed")
    for s in specs:
        try:
            descent.parse_seed_spec(s)
        except ConfigurationError as exc:
            raise ConfigurationError(f"line {line_no}: {exc}") from None
    return specs


_SCHEMA = {
    "mesh": {
        "dim": lambda t, ln: _parse_int(t, "dim", ln, 1),
        "extents": lambda t, ln: _parse_extents(t, "extents", ln),
        "resolution": lambda t, ln: _parse_int(t, "resolution", ln, 1),
        "levels": lambda t, ln: _parse_int(t, "levels", ln, 1),
    },
    "coefficients": {k: (lambda t, ln: t) for k in ("a", "b", "C", "D")},
    "strategy": {
        "seeds": lambda t, ln: _parse_seeds(t, "seeds", ln),
        "budget": lambda t, ln: _parse_int(t, "budget", ln, 1),
    },
    "run": {
        "window": lambda t, ln: _parse_int(t, "window", ln, 1),
        "seed": lambda t, ln: _parse_int(t, "seed", ln, 0),
    },
}


def _field_name(section, key):
    """The RunConfig field of a config key."""
    return f"{key}_expr" if section == "coefficients" else key


def parse_config_text(text):
    """Parse and validate configuration text into a RunConfig."""
    values, set_on = {}, {}
    section = None
    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigurationError(
                    f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {line_no}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigurationError(
                f"line {line_no}: key outside of any [section]")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigurationError(
                f"line {line_no}: unknown key {key!r} in [{section}]")
        name = _field_name(section, key)
        if name in set_on:
            raise ConfigurationError(
                f"line {line_no}: {key!r} in [{section}] is already set on "
                f"line {set_on[name]}")
        set_on[name] = line_no
        values[name] = _SCHEMA[section][key](val, line_no)

    cfg = RunConfig(raw_lines=tuple(lines), **values)
    if len(cfg.extents) == 1 and cfg.dim > 1:
        cfg.extents = cfg.extents * cfg.dim
    if cfg.dim not in (1, 2):
        raise ConfigurationError(f"dim must be 1 or 2, got {cfg.dim}")
    if len(cfg.extents) != cfg.dim:
        raise ConfigurationError(
            f"extents needs {cfg.dim} values, got {len(cfg.extents)}")
    return cfg


def parse_config(path):
    """Read, parse, and validate a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}")
    return parse_config_text(text)
