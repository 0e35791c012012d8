"""Judge one request's outputs against the oracle answers.

Every printed verdict, ray, edge and basis count, alpha and N is compared
with the oracle.  The pruned file must hold exactly the input rays that lie
in some basis, every COLORABLE witness is re-checked against the oracle's
bases and edges, the inequality file must carry the oracle's weights and
edges, and every evaluated quantum value must equal N.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import gen
import oracle

VALUE_TOL = 1e-8


def _fields(text: str) -> dict[str, str]:
    """The first value of every ``key value`` line."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields.setdefault(key, value)
    return fields


class Expected:
    """Oracle answers for one input file, plus its pruned structures."""

    def __init__(self, instance: gen.Instance, answers: dict, kept: list[int]) -> None:
        self.instance = instance
        self.answers = answers
        self.kept = set(kept)
        self.input_units = oracle.unit_floats(list(instance.rays), instance.disc)
        self._structures: dict[str, oracle.Structure] = {}

    def pruned(self, text: str) -> oracle.Structure:
        """The exact structure of a pruned file's rays, in file order.
        Raises ValueError unless they are exactly the based input rays."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self._structures:
            inst = self.instance
            dim, disc, rays = oracle.parse_ks(text)
            if dim != inst.dim:
                raise ValueError(f"pruned file has dim {dim}, expected {inst.dim}")
            index = oracle.match_rays(oracle.unit_floats(rays, disc), self.input_units)
            if set(index) != self.kept or len(index) != len(self.kept):
                raise ValueError("pruned file does not hold exactly the based input rays")
            if disc is not None:
                for ray, k in zip(rays, index):
                    if gen.projective_key(ray, disc) != gen.projective_key(inst.rays[k], inst.disc):
                        raise ValueError(f"pruned ray {ray} is not input ray {k}")
            exact = [inst.rays[k] for k in index]
            self._structures[digest] = oracle.Structure.of(exact, inst.disc, inst.dim)
        return self._structures[digest]


def _summary(fields: dict[str, str], answers: dict) -> str | None:
    want = {"rays": answers["kept"], "edges": answers["edges"], "bases": answers["bases"]}
    for key, value in want.items():
        if fields.get(key) != str(value):
            return f"{key} {fields.get(key)!r}, oracle {value}"
    return None


def _witness(line: str, structure: oracle.Structure, original: bool) -> str | None:
    values = [int(v) for v in line.split()]
    if len(values) != structure.n or any(v not in (0, 1) for v in values):
        return "witness has the wrong length or values"
    for basis in structure.bases:
        if sum(values[v] for v in basis) != 1:
            return f"witness puts {sum(values[v] for v in basis)} ones on basis {basis}"
    if original:
        for i, j in structure.edges:
            if values[i] and values[j]:
                return f"witness puts ones on orthogonal rays {i} and {j}"
    return None


def _inequality(text: str, structure: oracle.Structure, alpha: int) -> str | None:
    weights = structure.weights()
    terms: dict[int, int] = {}
    edges: dict[tuple[int, int], int] = {}
    fields: dict[str, str] = {}
    for line in text.splitlines():
        tokens = line.split()
        if tokens[0] == "term":
            terms[int(tokens[1])] = int(tokens[2])
        elif tokens[0] == "edge":
            edges[(int(tokens[1]), int(tokens[2]))] = int(tokens[3])
        else:
            fields[tokens[0]] = tokens[1]
    if terms != dict(enumerate(weights)):
        return "inequality weights differ from the basis counts"
    if set(edges) != set(structure.edges):
        return "inequality edges differ from the oracle edges"
    if any(w != max(weights[i], weights[j]) for (i, j), w in edges.items()):
        return "an edge weight is not max(w_i, w_j)"
    if fields.get("classical_bound") != str(alpha):
        return f"inequality file bound {fields.get('classical_bound')}, oracle {alpha}"
    if fields.get("quantum_value") != str(len(structure.bases)):
        return "inequality file quantum value is not N"
    return None


def check_record(record: dict, request: dict, expected: Expected, folder: Path) -> str | None:
    """None when the request ran within budget and every answer is right,
    else the first reason it failed.  Each step's output is read from
    ``<step>.out`` in the request's folder."""
    if record["status"] == "budget":
        return f"budget expired in layer {record['layer']}"
    if record["status"] == "exception":
        return "exception: " + record["error"].strip().splitlines()[-1]
    answers = expected.answers

    def step(name: str) -> tuple[int, str]:
        return record["steps"][name], (folder / f"{name}.out").read_text(encoding="utf-8")

    status, out = step("prune")
    if status != 0:
        return f"prune exited {status}"
    fields = _fields(out)
    problem = _summary(fields, answers)
    if problem is None and fields.get("removed") != str(answers["rays"] - answers["kept"]):
        problem = f"removed {fields.get('removed')!r}, oracle {answers['rays'] - answers['kept']}"
    if problem:
        return "prune: " + problem
    try:
        structure = expected.pruned((folder / "pruned.ks").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"pruned file: {exc}"

    for mode in ("original", "extended"):
        ks = answers[f"{mode}_ks"]
        status, out = step(mode)
        if status != (0 if ks else 1):
            return f"verify {mode} exited {status}, oracle says {'KS' if ks else 'COLORABLE'}"
        fields = _fields(out)
        problem = _summary(fields, answers)
        if problem is None and ("KS" in fields) != ks:
            problem = "verdict differs from the oracle"
        if problem is None and not ks:
            problem = _witness(fields.get("witness", ""), structure, mode == "original")
        if problem:
            return f"verify {mode}: {problem}"

    n_bases = answers["bases"]
    if request["kind"] == "verify":
        status, out = step("info")
        fields = _fields(out)
        problem = _summary(fields, answers)
        if status != 0 or problem or fields.get("based_rays") != str(answers["kept"]):
            return f"info: exit {status}, {problem or 'based_rays differs'}"
        return None

    alpha = answers["alpha"]
    status, out = step("inequality")
    fields = _fields(out)
    want = {"classical_bound": alpha, "quantum_value": n_bases, "gap": n_bases - alpha,
            "original_ks": "yes" if answers["original_ks"] else "no"}
    if status != 0:
        return f"inequality exited {status}"
    for key, value in want.items():
        if fields.get(key) != str(value):
            return f"inequality: {key} {fields.get(key)!r}, oracle {value}"
    try:
        problem = _inequality((folder / "ineq.txt").read_text(encoding="utf-8"), structure, alpha)
    except OSError as exc:
        problem = str(exc)
    if problem:
        return "inequality file: " + problem

    status, out = step("evaluate")
    fields = _fields(out)
    if status != 0 or fields.get("quantum_value") != str(n_bases):
        return f"evaluate: exit {status}, quantum_value {fields.get('quantum_value')!r}"
    trials = [line.split()[2] for line in out.splitlines() if line.startswith("trial ")]
    if len(trials) != request["trials"]:
        return f"evaluate printed {len(trials)} trials, asked for {request['trials']}"
    deviations = [float(value) - n_bases for value in trials]
    deviations.append(float(fields.get("max_deviation", "nan")))
    if not all(abs(d) <= VALUE_TOL * n_bases for d in deviations):
        return f"evaluate: a value is not N = {n_bases} within {VALUE_TOL} relative"
    if record["opsum"] is not True:
        return "operator_sum_check did not return True"
    return None
