"""Tensor mapping: memory concretization, composition, and scatter-back.

Implements the ``tensor map`` semantics of §III/IV: applying a functor
to application memory sweeps the symbolic constants over the concrete
ranges of the map target (*memory concretization*), wraps each RHS
slice as a strided view (:mod:`repro.bridge.slices`), and — for the
``to`` direction — performs *tensor composition*: flattening window
dims and concatenating the RHS views along the feature axis to build
the single LHS tensor.  The ``from`` direction reverses the flow,
scattering a model-output tensor back into application memory through
the same (writable) views without composition, exactly as §IV-A notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..directives.ast_nodes import SliceSpec, TensorMapDirective
from ..directives.parser import parse_directive
from ..directives.semantic import SemanticError, linearize
from .functor import TensorFunctor
from .slices import BridgeError, SliceView, SweepRange, sweep_shape, wrap_slice

__all__ = ["ConcretizedMap", "concretize", "evaluate_ranges", "MapSpec",
           "parse_map"]


def evaluate_ranges(spec: SliceSpec, env: dict) -> list[SweepRange]:
    """Evaluate a cs-specifier against declared integer variables.

    E.g. ``[1:N-1, 1:M-1]`` with ``env={'N': 64, 'M': 32}`` yields
    ``[SweepRange(1, 63), SweepRange(1, 31)]``.
    """
    # The region environment also carries arrays and flags; only plain
    # integers participate in slice arithmetic.
    env = {k: int(v) for k, v in env.items()
           if isinstance(v, (int, np.integer))}
    ranges = []
    for sl in spec.slices:
        if sl.is_point:
            raise BridgeError(f"map target dims must be ranges, got point "
                              f"access at {sl.loc}")
        lo = linearize(sl.start, env)
        hi = linearize(sl.stop, env)
        step = linearize(sl.step, env) if sl.step is not None else None
        if not lo.is_constant() or not hi.is_constant() or \
                (step is not None and not step.is_constant()):
            unresolved = set(lo.symbols) | set(hi.symbols) | \
                (set(step.symbols) if step is not None else set())
            raise BridgeError(
                f"map target range uses undeclared variables {sorted(unresolved)}")
        ranges.append(SweepRange(lo.const, hi.const,
                                 step.const if step is not None else 1))
    return ranges


@dataclass(frozen=True)
class MapSpec:
    """A parsed+validated ``tensor map`` directive bound to a functor."""

    direction: str            # 'to' | 'from'
    functor: TensorFunctor
    array_name: str
    target_spec: SliceSpec


def parse_map(source: str, functors: dict) -> list[MapSpec]:
    """Parse a ``tensor map`` directive; resolve its functor by name.

    Returns one :class:`MapSpec` per map target (the grammar allows a
    target list).
    """
    node = parse_directive(source)
    if not isinstance(node, TensorMapDirective):
        raise TypeError(f"expected a tensor map directive, got "
                        f"{type(node).__name__}")
    functor = functors.get(node.functor)
    if functor is None:
        raise SemanticError(f"tensor map references undeclared functor "
                            f"{node.functor!r}")
    if not isinstance(functor, TensorFunctor):
        functor = TensorFunctor.from_analyzed(functor)
    return [MapSpec(direction=node.direction, functor=functor,
                    array_name=t.array, target_spec=t.spec)
            for t in node.targets]


class ConcretizedMap:
    """A functor applied to one concrete array over concrete ranges.

    The ``to`` direction uses :meth:`gather` → LHS tensor (one copy, at
    composition).  The ``from`` direction uses :meth:`scatter` to write
    a tensor back through writable views (no composition step).
    """

    def __init__(self, functor: TensorFunctor, array: np.ndarray,
                 ranges: list[SweepRange], writable: bool = False):
        self.functor = functor
        self.array = array
        if len(ranges) != len(functor.symbols):
            raise BridgeError(
                f"functor {functor.name!r} declares {len(functor.symbols)} "
                f"symbols but {len(ranges)} ranges were supplied")
        self.bindings = dict(zip(functor.symbols, ranges))
        self.ranges = list(ranges)
        self.writable = writable
        self._views: list[SliceView] | None = None
        # The ranges are fixed for the map's lifetime, so its shapes are
        # computed once rather than on every gather/scatter.
        self.sweep_shape: tuple = sweep_shape(self.ranges)
        self.entry_count: int = math.prod(self.sweep_shape)
        #: Shape of the composed LHS tensor: sweep dims + feature dims.
        self.tensor_shape: tuple = self.sweep_shape + functor.feature_shape
        #: Model-facing layout: (batch, *features).
        self.flat_shape: tuple = (self.entry_count,) + functor.feature_shape

    # -- wrapping -----------------------------------------------------------
    def views(self) -> list[SliceView]:
        """Tensor-wrap every RHS slice (zero-copy; cached)."""
        if self._views is None:
            analyzed = self.functor.analyzed
            self._views = [
                wrap_slice(self.array, sl, analyzed.symbols, self.bindings,
                           writable=self.writable)
                for sl in analyzed.rhs
            ]
        return self._views

    def rebind(self, array: np.ndarray) -> "ConcretizedMap":
        """A new map over ``array``, which has this map's buffer layout.

        Bounds were checked when the views were first wrapped; a map
        already handed out (a deferred batched scatter) keeps its buffer.
        """
        if not array.flags.c_contiguous:
            raise BridgeError("target array must be C-contiguous")
        views = [sv.rebind(array, self.writable) for sv in self.views()]
        cm = object.__new__(ConcretizedMap)
        cm.__dict__.update(self.__dict__)
        cm.array = array
        cm._views = views
        return cm

    # -- to-direction ----------------------------------------------------------
    def gather(self, flatten_batch: bool = False) -> np.ndarray:
        """Compose the LHS tensor from the RHS views (the one copy).

        With ``flatten_batch`` the sweep dims collapse into a single
        batch axis — the layout inference engines consume.
        """
        sweep = self.sweep_shape
        parts = [sv.view.reshape(sweep + (sv.feature_count,))
                 for sv in self.views()]
        if len(parts) == 1:
            composed = np.ascontiguousarray(parts[0])
        else:
            composed = np.concatenate(parts, axis=-1)
        total = composed.shape[-1]
        expected = self.functor.total_features
        if total != expected:
            raise BridgeError(
                f"composition produced {total} features, LHS declares "
                f"{expected}")
        if flatten_batch:
            return composed.reshape(self.flat_shape)
        return composed.reshape(self.tensor_shape)

    # -- from-direction -----------------------------------------------------------
    def scatter(self, tensor: np.ndarray) -> None:
        """Write an LHS-shaped (or batch-flattened) tensor back to memory."""
        if not self.writable:
            raise BridgeError("scatter requires a writable (from-direction) map")
        tensor = np.asarray(tensor)
        sweep = self.sweep_shape
        total = self.functor.total_features
        if tensor.shape not in (self.tensor_shape, self.flat_shape,
                                (self.entry_count, total)):
            raise BridgeError(
                f"scatter tensor shape {tensor.shape} matches neither LHS "
                f"shape {self.tensor_shape} nor batch shape {self.flat_shape}")
        flat = tensor.reshape(sweep + (total,))
        offset = 0
        for sv in self.views():
            width = sv.feature_count
            chunk = flat[..., offset:offset + width]
            sv.view[...] = chunk.reshape(sweep + sv.window_shape)
            offset += width
        if offset != total:
            raise BridgeError(
                f"scatter consumed {offset} features of {total}")


def concretize(functor: TensorFunctor, array: np.ndarray,
               ranges: list[SweepRange] | SliceSpec, env: dict | None = None,
               writable: bool = False) -> ConcretizedMap:
    """Memory concretization: bind a functor to memory and sweep ranges.

    ``ranges`` is either explicit :class:`SweepRange` objects or a
    cs-specifier AST evaluated against ``env``.  Deferred integer
    variables in the functor (e.g. ``0:H``) resolve against ``env`` —
    the same binding a compiler performs for program variables.
    """
    if isinstance(ranges, SliceSpec):
        ranges = evaluate_ranges(ranges, env or {})
    if not functor.analyzed.resolved:
        int_env = {k: int(v) for k, v in (env or {}).items()
                   if isinstance(v, (int, np.integer))}
        functor = TensorFunctor.from_analyzed(functor.analyzed.resolve(int_env))
    return ConcretizedMap(functor, array, list(ranges), writable=writable)
