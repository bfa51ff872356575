"""Command line front end.

Subcommands:
  thermal   exact thermal decomposition of a scenario
  evolve    integrate a scenario forward in time
  verify    run the generator invariant suite
  fig2      classical weight profiles across coupling ratios
  sweep     repeat evolve over a list of parameter values

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 integration
did not converge (or went stiff).  Output files are byte-stable for a
fixed scenario and seed.  sweep runs its points in order; its --threads
option is accepted and has no effect.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .continuum import (
    ContinuumParams,
    FokkerPlanckEvolution,
    continuum_profile,
    expected_peak_offset,
)
from .evolve import (
    IntegratorConfig,
    StiffIntegrationError,
    integrate,
    trajectory_csv,
)
from .generator import TransitionSpec, build_generator
from .models import (
    LatticeScenario,
    TlsScenario,
    build_alt_lattice,
    build_lattice,
    build_tls,
)
from .state import (
    HybridHamiltonian,
    HybridState,
    load_state,
    state_to_json_dict,
    validate_state,
)
from .thermal import hybrid_thermal, thermal_decomposition
from .verify import random_hybrid_state, verification_report


class InputError(Exception):
    pass


def _load_schema() -> dict:
    text = (
        resources.files("hybridtherm")
        .joinpath("schemas/scenario.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    # JSON integers only: 18.0 and 1e6 parse as floats and are refused
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}


def _same(a, b) -> bool:
    """JSON equality: booleans are not numbers, containers compare by element."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def _schema_errors(value, schema: dict, root: dict, path: str = "$"):
    """(JSON path, message) for every way value breaks schema.

    A JSON Schema (draft 2020-12) check of exactly the keywords that
    scenario.schema.json uses, yielding in a draft validator's order; any
    other keyword raises, so the schema cannot outgrow the check unnoticed.
    """
    for key, arg in schema.items():
        if key in ("$schema", "title", "$defs"):
            continue
        if key == "$ref":
            sub = root["$defs"][arg.removeprefix("#/$defs/")]
            yield from _schema_errors(value, sub, root, path)
        elif key == "type":
            if not _TYPES[arg](value):
                yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum":
            if not any(_same(value, option) for option in arg):
                yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum":
            if _TYPES["number"](value) and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "exclusiveMinimum":
            if _TYPES["number"](value) and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                short = "should be non-empty" if arg == 1 else "is too short"
                yield path, f"{value!r} {short}"
        elif key == "maxItems":
            if isinstance(value, list) and len(value) > arg:
                yield path, f"{value!r} is too long"
        elif key == "uniqueItems":
            if arg and isinstance(value, list) and any(
                _same(a, b) for i, a in enumerate(value) for b in value[i + 1:]
            ):
                yield path, f"{value!r} has non-unique elements"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(item, arg, root, f"{path}[{i}]")
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(value[name], sub, root, f"{path}.{name}")
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif key == "additionalProperties" and arg is False:
            extras = isinstance(value, dict) and sorted(
                set(value) - set(schema.get("properties", {}))
            )
            if extras:
                names = ", ".join(map(repr, extras))
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        else:
            raise ValueError(f"scenario schema keyword {key!r} is not supported")


def _validate_scenario(data) -> None:
    schema = _load_schema()
    errors = sorted(_schema_errors(data, schema, schema), key=lambda e: e[0])
    if errors:
        path, message = errors[0]
        raise InputError(f"scenario invalid at {path}: {message}")


def _reject_constant(token: str):
    # json accepts NaN and Infinity, and the schema's bounds let NaN through
    raise InputError(f"scenario holds the non-finite number {token}")


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except OSError as err:
        raise InputError(f"cannot read scenario: {err}") from err
    except json.JSONDecodeError as err:
        raise InputError(f"scenario is not valid JSON: {err}") from err
    _validate_scenario(data)
    required_block = {
        "lattice": "lattice",
        "alt_lattice": "lattice",
        "fokker_planck": "fokker_planck",
        "custom": "custom",
    }
    block = required_block.get(data["type"])
    if block is not None and block not in data:
        raise InputError(f"scenario type {data['type']!r} needs a {block!r} block")
    return data


def _matrix_from_json(rows) -> np.ndarray:
    try:
        arr = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as err:
        raise InputError(f"bad matrix entry: {err}") from err
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("matrices must be square")
    return arr


def build_discrete(scenario: dict):
    """Return (hamiltonian, generator) for a non-continuum scenario."""
    kind = scenario["type"]
    beta = scenario["beta"]
    if kind == "tls":
        opts = scenario.get("tls", {})
        mechanisms = tuple(opts.get("mechanisms", ("a", "b", "c", "d", "e")))
        s = TlsScenario(
            beta=beta,
            energy_a=opts.get("energy_a", 0.0),
            energy_b=opts.get("energy_b", 0.0),
            omega_a=opts.get("omega_a", 1.0),
            omega_b=opts.get("omega_b", 1.0),
            mechanisms=mechanisms,
            rates=dict(opts.get("rates", {})),
        )
        return build_tls(s)
    if kind in ("lattice", "alt_lattice"):
        opts = scenario["lattice"]
        s = LatticeScenario(
            beta=beta,
            half_width=opts["half_width"],
            omega_0=opts["omega_0"],
            delta_omega=opts["delta_omega"],
            energy_0=opts.get("energy_0", 0.0),
            delta_e=opts["delta_e"],
            delta_x=opts.get("delta_x", 1.0),
            kappa_th=opts.get("kappa_th", 1.0),
            kappa_plus=opts.get("kappa_plus", 1.0),
            kappa_minus=opts.get("kappa_minus", 1.0),
        )
        builder = build_lattice if kind == "lattice" else build_alt_lattice
        try:
            return builder(s)
        except ValueError as err:
            raise InputError(str(err)) from err
    if kind == "custom":
        opts = scenario["custom"]
        energies = np.array(opts["energies"], dtype=float)
        h_system = _matrix_from_json(opts["h_system"])
        h_bar = np.stack([_matrix_from_json(m) for m in opts["h_bar"]])
        try:
            h = HybridHamiltonian(
                energies=energies,
                h_system=h_system,
                coupling=opts.get("coupling", 1.0),
                h_bar=h_bar,
            )
        except ValueError as err:
            raise InputError(str(err)) from err
        transitions = [
            TransitionSpec(
                label_a=t["label_a"],
                index_a=t["index_a"],
                label_b=t["label_b"],
                index_b=t["index_b"],
                base_rate=t["rate"],
            )
            for t in opts["transitions"]
        ]
        try:
            gen = build_generator(h, transitions, beta)
        except ValueError as err:
            raise InputError(str(err)) from err
        return h, gen
    raise InputError(f"scenario type {kind!r} has no discrete generator")


def build_continuum(scenario: dict):
    opts = scenario["fokker_planck"]
    params = ContinuumParams(
        beta=scenario["beta"],
        omega_0=opts["omega_0"],
        delta_omega=opts["delta_omega"],
        delta_e=opts["delta_e"],
        delta_x=opts["delta_x"],
    )
    offset = expected_peak_offset(params)
    sigma = params.delta_x / np.sqrt(2.0 * params.beta * params.delta_e)
    x_max = opts.get("x_max", float(offset + 6.0 * sigma))
    points = opts.get("points", 401)
    x = np.linspace(-x_max, x_max, points)
    try:
        evo = FokkerPlanckEvolution(
            params,
            x,
            gamma=opts["gamma"],
            kappa_th=opts.get("kappa_th", 1.0),
        )
    except ValueError as err:
        raise InputError(str(err)) from err
    return params, evo


def _integrator_config(scenario: dict) -> IntegratorConfig:
    if "integrator" not in scenario:
        raise InputError("evolve needs an 'integrator' block in the scenario")
    # the schema admits exactly the IntegratorConfig fields
    return IntegratorConfig(**scenario["integrator"])


def _initial_discrete(scenario, h, gen, beta, rng) -> HybridState:
    opts = scenario.get("initial_state", {"kind": "thermal"})
    kind = opts["kind"]
    num_labels = h.num_labels
    d = h.dim_s
    if kind == "thermal":
        return hybrid_thermal(h, beta)
    if kind == "uniform":
        blocks = np.tile(np.eye(d, dtype=complex) / (num_labels * d), (num_labels, 1, 1))
        return HybridState(blocks)
    if kind == "random":
        return random_hybrid_state(rng, num_labels, d)
    if kind == "polarized":
        blocks = np.zeros((num_labels, d, d), dtype=complex)
        blocks[0] = np.eye(d) / d
        return HybridState(blocks)
    if kind == "coherent":
        psi = gen.eigenvectors[0].sum(axis=1) / np.sqrt(d)
        blocks = np.zeros((num_labels, d, d), dtype=complex)
        blocks[0] = np.outer(psi, psi.conj())
        return HybridState(blocks)
    if kind == "file":
        if "path" not in opts:
            raise InputError("initial_state kind 'file' needs a path")
        try:
            state = load_state(opts["path"])
            validate_state(state)
            return state
        except (OSError, ValueError, KeyError) as err:
            raise InputError(f"cannot load initial state: {err}") from err
    raise InputError(f"unsupported initial state {kind!r}")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_thermal(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario["type"] == "fokker_planck":
        raise InputError("thermal expects a discrete scenario type")
    h, _ = build_discrete(scenario)
    dec = thermal_decomposition(h, scenario["beta"])
    out = Path(args.out)
    _write(
        out / "thermal.json",
        _json_text(
            {
                "beta": dec.beta,
                "weights": [float(w) for w in dec.weights],
                "free_energies": [float(a) for a in dec.free_energies],
                "log_z": float(dec.log_z),
                "log_z_th": float(dec.log_z_th),
                "z": float(dec.z),
                "z_th": float(dec.z_th),
            }
        ),
    )
    lines = ["label,i,j,re,im"]
    for c, block in enumerate(dec.conditionals):
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                val = block[i, j]
                lines.append(f"{c},{i},{j},{float(val.real)!r},{float(val.imag)!r}")
    _write(out / "conditionals.csv", "\n".join(lines) + "\n")
    print(f"wrote {out / 'thermal.json'} and {out / 'conditionals.csv'}")
    return 0


def _evolve_discrete(args, scenario) -> int:
    beta = scenario["beta"]
    h, gen = build_discrete(scenario)
    cfg = _integrator_config(scenario)
    rng = np.random.default_rng(args.seed)
    state = _initial_discrete(scenario, h, gen, beta, rng)
    target = hybrid_thermal(h, beta)
    try:
        traj = integrate(gen, state, cfg, target=target)
    except ValueError as err:
        raise InputError(str(err)) from err
    out = Path(args.out)
    _write(out / "trajectory.csv", trajectory_csv(traj))
    final = state_to_json_dict(traj.final_state)
    final["converged"] = traj.converged
    final["converged_time"] = traj.converged_time
    _write(out / "final_state.json", _json_text(final))
    print(
        f"evolved to t={float(traj.times[-1])!r}, converged={traj.converged}, "
        f"wrote {out / 'trajectory.csv'}"
    )
    if not traj.converged:
        print(
            "not converged by t_max; distance to thermal "
            f"{float(traj.dist_to_target[-1]):.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def _evolve_continuum(args, scenario) -> int:
    params, evo = build_continuum(scenario)
    cfg = _integrator_config(scenario)
    kind = scenario.get("initial_state", {"kind": "thermal"})["kind"]
    builders = {
        "thermal": evo.thermal_fields,
        "coherent": evo.coherent_fields,
        "polarized": evo.polarized_fields,
    }
    if kind not in builders:
        raise InputError(f"fokker_planck supports initial states {sorted(builders)}")
    state = builders[kind]()
    try:
        traj = evo.integrate(state, cfg)
    except ValueError as err:
        raise InputError(str(err)) from err
    out = Path(args.out)
    lines = ["t,total_mass,min_conditional_eig"]
    for t, m, e in zip(traj.times, traj.total_mass, traj.min_conditional_eig):
        lines.append(f"{float(t)!r},{float(m)!r},{float(e)!r}")
    _write(out / "trajectory.csv", "\n".join(lines) + "\n")
    f = traj.final
    rows = ["x,p_plus,p_minus,c_plus_re,c_plus_im,c_minus_re,c_minus_im"]
    for k in range(evo.x.size):
        rows.append(
            ",".join(
                repr(float(v))
                for v in (
                    evo.x[k],
                    f.p_plus[k],
                    f.p_minus[k],
                    f.c_plus[k].real,
                    f.c_plus[k].imag,
                    f.c_minus[k].real,
                    f.c_minus[k].imag,
                )
            )
        )
    _write(out / "final_fields.csv", "\n".join(rows) + "\n")
    _write(
        out / "final.json",
        _json_text(
            {
                "converged": traj.converged,
                "total_mass": float(traj.total_mass[-1]),
                "min_conditional_eig": float(traj.min_conditional_eig[-1]),
                "last_population_change": float(traj.last_population_change),
            }
        ),
    )
    print(f"wrote {out / 'trajectory.csv'} and {out / 'final_fields.csv'}")
    if not traj.converged:
        print(
            "not converged by t_max; last population change "
            f"{float(traj.last_population_change):.3e}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_evolve(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario["type"] == "fokker_planck":
        return _evolve_continuum(args, scenario)
    return _evolve_discrete(args, scenario)


def cmd_verify(args) -> int:
    if args.states < 1:
        raise InputError(f"--states must be positive, got {args.states}")
    scenario = load_scenario(args.scenario)
    if scenario["type"] == "fokker_planck":
        raise InputError("verify expects a discrete scenario type")
    _, gen = build_discrete(scenario)
    rng = np.random.default_rng(args.seed)
    report = verification_report(gen, rng, num_states=args.states)
    _write(Path(args.out) / "verify.json", _json_text(report))
    for check in report["checks"]:
        status = "SKIP" if check["skipped"] else ("ok" if check["passed"] else "FAIL")
        print(f"{status:4s} {check['name']}")
    if not report["all_passed"]:
        return 1
    print("all invariants hold")
    return 0


def cmd_fig2(args) -> int:
    ratios = []
    for chunk in args.ratios.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            ratios.append(float(chunk))
        except ValueError as err:
            raise InputError(f"bad ratio {chunk!r}") from err
    if not ratios:
        raise InputError("no ratios given")
    out = Path(args.out)
    summary = {
        "beta_delta_e": args.beta_de,
        "beta_omega_0": args.beta_w0,
        "profiles": [],
    }
    for i, ratio in enumerate(ratios):
        delta_e = args.beta_de
        params = ContinuumParams(
            beta=1.0,
            omega_0=args.beta_w0,
            delta_omega=ratio * delta_e,
            delta_e=delta_e,
            delta_x=1.0,
        )
        profile = continuum_profile(params, num_points=args.points)
        name = f"profile_{i:02d}.csv"
        lines = ["x,weight,gaussian"]
        for x, w, g in zip(profile.x, profile.density, profile.gaussian):
            lines.append(f"{float(x)!r},{float(w)!r},{float(g)!r}")
        _write(out / name, "\n".join(lines) + "\n")
        summary["profiles"].append(
            {
                "ratio": ratio,
                "file": name,
                "modality": profile.modality,
                "peaks": [float(p) for p in profile.peaks],
                "expected_peak_offset": float(expected_peak_offset(params)),
                "z_th": float(profile.z_th),
            }
        )
    _write(out / "summary.json", _json_text(summary))
    print(f"wrote {len(ratios)} profiles and {out / 'summary.json'}")
    return 0


def _set_by_path(scenario: dict, dotted: str, value: float) -> None:
    keys = dotted.split(".")
    node = scenario
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise InputError(f"sweep path {dotted!r} not found in scenario")
        node = node[key]
    node[keys[-1]] = value


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as err:
        raise InputError(f"bad sweep values: {err}") from err
    if not np.all(np.isfinite(values)):
        raise InputError(f"sweep values must be finite, got {args.values!r}")
    if not values:
        raise InputError("no sweep values given")

    points = []
    for i, value in enumerate(values):
        modified = copy.deepcopy(scenario)
        _set_by_path(modified, args.param, value)
        # a typo in the last path element would otherwise add a dead key
        _validate_scenario(modified)
        points.append((i, value, modified))

    def run_point(i, value, modified):
        sub = argparse.Namespace(
            out=str(Path(args.out) / f"point_{i:02d}"),
            seed=args.seed,
        )
        try:
            if modified["type"] == "fokker_planck":
                code = _evolve_continuum(sub, modified)
            else:
                code = _evolve_discrete(sub, modified)
        except StiffIntegrationError as err:
            return {"index": i, "value": value, "ok": False, "error": str(err)}
        if code != 0:
            return {
                "index": i,
                "value": value,
                "ok": False,
                "error": "not converged by t_max",
            }
        return {"index": i, "value": value, "ok": True, "error": None}

    results = [run_point(*point) for point in points]
    _write(
        Path(args.out) / "sweep.json",
        _json_text({"param": args.param, "points": results}),
    )
    print(f"swept {args.param} over {len(values)} values")
    return 0 if all(r["ok"] for r in results) else 3


def _add_common(sub, scenario_required=True):
    if scenario_required:
        sub.add_argument("--scenario", required=True, help="scenario JSON file")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--seed", type=int, default=0, help="seed for random pieces")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridtherm",
        description="thermal states and thermalizing dynamics for hybrid systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("thermal", help="exact thermal decomposition")
    _add_common(p)
    p.set_defaults(func=cmd_thermal)

    p = subs.add_parser("evolve", help="integrate a scenario in time")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = subs.add_parser("verify", help="run the generator invariant suite")
    _add_common(p)
    p.add_argument("--states", type=int, default=20, help="random probe states")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("fig2", help="classical weight profiles over ratios")
    _add_common(p, scenario_required=False)
    p.add_argument("--beta-de", type=float, default=0.01, help="beta * delta_e")
    p.add_argument("--beta-w0", type=float, default=0.0, help="beta * omega_0")
    p.add_argument(
        "--ratios", default="0.5,5,20,40", help="comma list of delta_omega/delta_e"
    )
    p.add_argument("--points", type=int, default=2001, help="grid points per profile")
    p.set_defaults(func=cmd_fig2)

    p = subs.add_parser("sweep", help="evolve over a list of parameter values")
    _add_common(p)
    p.add_argument("--param", required=True, help="dotted path, e.g. lattice.kappa_th")
    p.add_argument("--values", required=True, help="comma list of values")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored: the points run in order",
    )
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StiffIntegrationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
