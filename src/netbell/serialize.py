"""JSON (de)serialization for the package's domain objects.

Complex matrices are encoded as ``{"re": [[...]], "im": [[...]]}`` and
vectors as the same with flat lists; states additionally carry their
``subsystem_dims``. Parsers raise ``ValueError`` naming the first invalid
field so CLI diagnostics can point at it.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .classical import DeterministicStrategy
from .errors import InvalidScenario
from .functionals import Functional, Kind, ObservableAssignment
from .states import Observable, QuantumState


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, full-precision
    floats (repr round-trips bit-identically)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def _field(obj: dict, key: str, path: str):
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if key not in obj:
        raise ValueError(f"{path}.{key}: missing field")
    return obj[key]


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{path}: expected a list")
    return value


def _floats(obj: dict, key: str, path: str) -> np.ndarray:
    """The field as a float array. Every leaf must be a JSON number: numpy
    would also convert a numeric string or a boolean."""
    value = _field(obj, key, path)
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(reversed(leaf))
        elif type(leaf) not in (int, float):
            raise ValueError(f"{path}.{key}: could not convert {leaf!r} to a number")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:  # ragged lists
        raise ValueError(f"{path}.{key}: {exc}") from exc


def matrix_to_json(m: np.ndarray) -> dict:
    arr = np.asarray(m, dtype=complex)
    return {"re": arr.real.tolist(), "im": arr.imag.tolist()}


def matrix_from_json(obj: dict, path: str = "matrix") -> np.ndarray:
    re, im = _floats(obj, "re", path), _floats(obj, "im", path)
    if re.shape != im.shape:
        raise ValueError(f"{path}: re/im shapes differ")
    return re + 1j * im


def state_to_json(state: QuantumState) -> dict:
    return {
        "kind": state.kind,
        "data": matrix_to_json(state.data),
        "subsystem_dims": list(state.subsystem_dims),
    }


def state_from_json(obj: dict, path: str = "state") -> QuantumState:
    kind = _field(obj, "kind", path)
    dims = _field(obj, "subsystem_dims", path)
    if not isinstance(dims, list) or any(type(d) is not int or d < 1 for d in dims):
        raise ValueError(f"{path}.subsystem_dims: must be a list of positive "
                         f"integers, got {dims!r}")
    data = matrix_from_json(_field(obj, "data", path), f"{path}.data")
    if kind not in ("pure", "density"):
        raise ValueError(f"{path}.kind: must be 'pure' or 'density'")
    try:
        return QuantumState(kind, data, tuple(dims))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def observable_to_json(obs: Observable) -> dict:
    return matrix_to_json(obs.matrix)


def observable_from_json(obj: dict, path: str = "observable") -> Observable:
    matrix = matrix_from_json(obj, path)
    try:
        return Observable(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def functional_to_json(f: Functional) -> dict:
    rows = f.coefficients.astype(int).tolist()
    return {
        "kind": f.kind.value,
        "m": f.m,
        "n": f.n,
        "combiner": f.combiner,
        "terms": [{"signs": [row] * f.n, "central_input": i} for i, row in enumerate(rows)],
    }


def _integer(obj: dict, key: str, path: str) -> int:
    value = _field(obj, key, path)
    if type(value) is not int:
        raise InvalidScenario(f"{path}.{key}: must be an integer, got {value!r}")
    return value


def functional_from_json(obj: dict, path: str = "functional") -> Functional:
    """The functional of the document's kind, m and n. Its ``combiner``
    and ``terms`` must be the JSON that functional writes (a ``true`` or
    ``1.0`` for a sign 1 differs); the first that differs is refused with
    ``InvalidScenario`` naming the field."""
    f = Functional(
        Kind(_field(obj, "kind", path)),
        _integer(obj, "m", path),
        _integer(obj, "n", path),
    )
    expected = functional_to_json(f)
    for key in ("combiner", "terms"):
        if dumps(_field(obj, key, path)) != dumps(expected[key]):
            raise InvalidScenario(f"{path}.{key}: does not match {f.kind.value} "
                                  f"with m={f.m}, n={f.n}")
    return f


def assignment_to_json(assignment: ObservableAssignment) -> dict:
    return {
        "edge_observables": [
            [observable_to_json(o) for o in row] for row in assignment.edge
        ],
        "central_observables": [
            observable_to_json(o) for o in assignment.central
        ],
    }


def assignment_from_json(obj: dict, path: str = "settings") -> ObservableAssignment:
    edges = f"{path}.edge_observables"
    centrals = f"{path}.central_observables"
    edge = tuple(
        tuple(
            observable_from_json(o, f"{edges}[{k}][{x}]")
            for x, o in enumerate(_list(row, f"{edges}[{k}]"))
        )
        for k, row in enumerate(_list(_field(obj, "edge_observables", path), edges))
    )
    central = tuple(
        observable_from_json(o, f"{centrals}[{i}]")
        for i, o in enumerate(_list(_field(obj, "central_observables", path), centrals))
    )
    return ObservableAssignment(edge=edge, central=central)


def settings_from_json(obj: dict) -> tuple[QuantumState, ObservableAssignment]:
    """Parse a certify settings document: a state plus the observables."""
    state = state_from_json(_field(obj, "state", "settings"), "settings.state")
    return state, assignment_from_json(obj, "settings")


def strategy_to_json(s: DeterministicStrategy) -> dict:
    return {
        "edge_responses": [list(row) for row in s.edge_responses],
        "central_responses": list(s.central_responses),
    }


def strategy_from_json(obj: dict, path: str = "strategy") -> DeterministicStrategy:
    return DeterministicStrategy(
        edge_responses=tuple(
            tuple(int(v) for v in row)
            for row in _field(obj, "edge_responses", path)
        ),
        central_responses=tuple(
            int(v) for v in _field(obj, "central_responses", path)
        ),
    )
