"""Command-line pipeline: metrics, simulate, reconstruct, wigner, verify.

Configuration is a flat key = value text file; unknown keys are rejected.
Every output file embeds the sha256 hash of the canonical config text plus
the seed, and ``manifest.json`` lists each record file's path and sha256.
``verify`` checks every output's stamp against the run's config hash;
``verify`` and ``reconstruct`` rehash the manifest's config text and record
files, and ``reconstruct`` and ``wigner`` reject an input stamped for another run.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.
"""

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

# dependency order, as the package root imported them; a desk session's peak RSS depends on it
from . import states, tomography, montecarlo, wigner, trapsim
from .tomography import SingularSystemError, TomographySettings

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3

LOCK_NAME = ".wernerlike.lock"


class ConfigError(ValueError):
    """Bad configuration file or command line."""


@dataclass(frozen=True)
class RunConfig:
    alpha: float = 0.7
    cutoff: int = 32
    beta_abs: float = 0.6
    n_max: int = 31
    n_cutoff: int = 31
    n_phases: int = 96
    events_per_phase: int = 10000
    eta: float = 0.9
    seed: int = 20260801
    backend: str = "density"

    @classmethod
    def from_file(cls, path):
        types = {f.name: f.type for f in fields(cls)}
        values = {}
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in types:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                values[key] = types[key](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse {key} value {value!r}")
        return cls(**values).validate()

    def to_text(self):
        lines = [f"{f.name} = {getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def settings(self, theta=0.0, phi_spin=0.0):
        return TomographySettings(
            theta=theta,
            phi_spin=phi_spin,
            beta_abs=self.beta_abs,
            n_phases=self.n_phases,
            n_max=self.n_max,
            n_cutoff=self.n_cutoff,
            eta=self.eta,
        )

    def validate(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError("alpha must be finite and nonnegative")
        if self.cutoff < 2:
            raise ConfigError("cutoff must be at least 2")
        if self.backend not in ("density", "trap"):
            raise ConfigError(f"backend must be 'density' or 'trap', got {self.backend!r}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.events_per_phase < 1:
            raise ConfigError("events_per_phase must be positive")
        try:
            self.settings()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    def truth_state(self):
        return states.build_hybrid_mixture(self.alpha, self.cutoff)


@contextmanager
def output_lock(outdir):
    path = Path(outdir) / LOCK_NAME
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise OSError(
            f"output directory {outdir} is in use (lock file {path}; remove it if stale)"
        )
    try:
        os.write(fd, str(os.getpid()).encode())
        yield
    finally:
        os.close(fd)
        path.unlink(missing_ok=True)


def _stamp(config):
    return {"config_hash": config.config_hash(), "seed": config.seed}


def _stamp_comments(config):
    return [f"config_hash={config.config_hash()}", f"seed={config.seed}"]


def _record_path(outdir, index):
    return Path(outdir) / f"records_g{index}.jsonl"


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json_object(path):
    """The JSON object a file holds; a ConfigError naming the file otherwise."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_metrics(config, args, outdir):
    table = states.metric_sweep(args.alpha_min, args.alpha_max, args.steps)
    alpha_star = states.fidelity_threshold()
    if args.alpha_min <= alpha_star <= args.alpha_max:
        pos = int(np.searchsorted(table[:, 0], alpha_star))
        table = np.insert(table, pos, states.metric_row(alpha_star), axis=0)
    csv_path = outdir / "metrics.csv"
    states.write_metrics_csv(
        csv_path,
        table,
        comments=_stamp_comments(config) + [f"fidelity_threshold_alpha={alpha_star:.17g}"],
    )
    meta = {
        "fidelity_threshold_alpha": alpha_star,
        "classical_fidelity": states.CLASSICAL_FIDELITY,
        "rows": int(table.shape[0]),
        "monotonicity": states.sweep_monotonicity(table),
        **_stamp(config),
    }
    (outdir / "metrics_meta.json").write_text(json.dumps(meta))
    print(f"wrote {csv_path} ({table.shape[0]} rows); threshold alpha = {alpha_star:.4f}")
    return EXIT_OK


def cmd_simulate(config, args, outdir):
    targets = [_record_path(outdir, i) for i in range(3)] + [outdir / "manifest.json"]
    if not args.force:
        existing = [str(p) for p in targets if p.exists()]
        if existing:
            raise ConfigError(
                f"refusing to overwrite {', '.join(existing)}; pass --force to allow"
            )
    files = []
    # one state object, so the three groups share one forward pass
    truth = config.truth_state() if config.backend == "density" else None
    for i, angles in enumerate(tomography.standard_setting_angles()):
        settings = config.settings(*angles)
        if config.backend == "trap":
            records = trapsim.simulate_trap_acquisition(
                config.alpha, settings, config.events_per_phase, config.seed,
                dim=config.cutoff, setting_index=i,
            )
        else:
            records = montecarlo.simulate_acquisition(
                truth, settings, config.events_per_phase, config.seed, setting_index=i,
            )
        path = _record_path(outdir, i)
        montecarlo.write_records(path, records)
        files.append({"path": path.name, "sha256": _sha256(path)})
    manifest = {
        "config_text": config.to_text(),
        "backend": config.backend,
        "files": files,
        **_stamp(config),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest))
    print(f"wrote {len(files)} record groups and manifest to {outdir}")
    return EXIT_OK


def _load_marginals(config, records_dir):
    datas = []
    for i, angles in enumerate(tomography.standard_setting_angles()):
        path = _record_path(records_dir, i)
        if not path.exists():
            raise ConfigError(
                f"missing record group with (theta, phi_spin) = "
                f"({angles[0]:.6g}, {angles[1]:.6g}) (expected file {path})"
            )
        try:
            datas.append(montecarlo.estimate_marginals(montecarlo.read_records(path)))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return datas


def _check_stamp(config, path, payload):
    """Reject an input, the records' manifest or an estimate, whose stamp
    names another run's seed, backend or config hash."""
    expected = {"seed": config.seed, "backend": config.backend,
                "config_hash": config.config_hash()}
    for key, value in expected.items():
        if payload.get(key) != value:
            raise ConfigError(
                f"{path}: {key} {payload.get(key)!r} does not match the run's {value!r}"
            )


def _manifest_problems(path, payload):
    """The problems of a records manifest: its config_text's hash, and records_g0..2.jsonl
    beside it, each listed once, present and with its sha256; a ConfigError if malformed."""
    text, files = payload.get("config_text", ""), payload.get("files", [])
    if not isinstance(text, str):
        raise ConfigError(f"{path}: config_text must be a string")
    if not (isinstance(files, list) and all(isinstance(e, dict) for e in files)):
        raise ConfigError(f"{path}: files must be a list of objects")
    problems = []
    if hashlib.sha256(text.encode()).hexdigest() != payload.get("config_hash"):
        problems.append("manifest config_hash does not match its config_text")
    names = [_record_path(path.parent, i).name for i in range(3)]
    listed = [entry.get("path") for entry in files]
    for name in names:
        if listed.count(name) != 1:
            problems.append(f"{name}: listed {listed.count(name)} times in the manifest")
    for entry, name in zip(files, listed):
        if not isinstance(name, str) or name in names and not (path.parent / name).is_file():
            problems.append(f"{name}: missing, listed in the manifest")
        elif name not in names:
            problems.append(f"{name}: not a record file of this run, listed in the manifest")
        elif _sha256(path.parent / name) != entry.get("sha256"):
            problems.append(f"{name}: sha256 differs from the manifest's")
    return problems


def cmd_reconstruct(config, args, outdir):
    records_dir = Path(args.records) if args.records else outdir
    base = config.settings()
    # the true state only where it is used: it may not fit the cutoff
    truth = config.truth_state() if args.exact or args.truth else None
    if args.exact:
        datas = [
            tomography.exact_marginal_data(truth, config.settings(*angles))
            for angles in tomography.standard_setting_angles()
        ]
    else:
        # records parse first, so a broken record names its phase
        datas = _load_marginals(config, records_dir)
        manifest = records_dir / "manifest.json"
        if manifest.exists():
            payload = _read_json_object(manifest)
            _check_stamp(config, manifest, payload)
            for problem in _manifest_problems(manifest, payload):
                raise ConfigError(f"{manifest}: {problem}")
    estimate = tomography.reconstruct_full(datas, base)
    report = tomography.error_report(estimate, truth) if args.truth else None
    extra = {
        "backend": config.backend,
        "exact_marginals": bool(args.exact),
        "truth_comparison": report,
        **_stamp(config),
    }
    out_path = outdir / "reconstruction.json"
    tomography.write_estimate_json(out_path, estimate, extra)
    lines = [
        f"reconstruction written to {out_path}",
        f"trace(uu) = {np.trace(estimate.uu.values).real:+.6f}"
        f"  trace(dd) = {np.trace(estimate.dd.values).real:+.6f}",
        f"trace(ud) = {np.trace(estimate.ud.values):+.6f}",
        "order  sigma_max      cond(G^T G) dropped",
    ]
    for diag in estimate.orders:
        lines.append(
            f"r={diag['r']:<4d} {diag['sigma_max']:<13.4e} {diag['cond']:<11.3e}"
            f" {diag['dropped']}"
        )
    if report is not None:
        for name in ("uu", "dd", "ud"):
            lines.append(
                f"block {name}: max |error| = {report[name]['max_abs_error']:.3e},"
                f" within 3 sigma = {_coverage(report[name]['within_3sigma'], 3)}"
            )
        lines.append(f"pooled within 3 sigma = {_coverage(report['pooled_within_3sigma'], 4)}")
    summary = "\n".join(lines) + "\n"
    stamp = "".join(f"# {line}\n" for line in _stamp_comments(config))
    (outdir / "summary.txt").write_text(stamp + summary)
    print(summary, end="")
    return EXIT_OK


def _coverage(fraction, digits):
    # error_report's containment, which is None when no part has sigma > 0
    return "n/a (0 parts)" if fraction is None else f"{fraction:.{digits}f}"


def cmd_wigner(config, args, outdir):
    re_axis, im_axis = wigner.default_axes(
        config.alpha, re_pad=args.re_pad, spacing=args.spacing, im_extent=args.im_extent
    )
    sources = {}
    if args.source in ("true", "both"):
        sources["true"] = config.truth_state()
    if args.source in ("recon", "both"):
        recon_path = Path(args.reconstruction) if args.reconstruction else outdir / "reconstruction.json"
        if not recon_path.exists():
            raise ConfigError(f"no reconstruction file at {recon_path}")
        try:
            estimate, payload = tomography.load_estimate_json(recon_path)
        except ValueError as exc:
            raise ConfigError(f"{recon_path}: {exc}") from exc
        _check_stamp(config, recon_path, payload)
        sources["recon"] = estimate.to_state()
    # one displacement table serves every source's blocks
    named = {(tag, n): getattr(st, n) for tag, st in sources.items() for n in wigner.BLOCK_NAMES}
    joint = wigner.wigner_grid(named, re_axis, im_axis)
    grids = {}
    meta = {"spacing": args.spacing, **_stamp(config)}
    for tag, st in sources.items():
        grid = replace(joint, blocks={n: joint.blocks[tag, n] for n in wigner.BLOCK_NAMES},
                       meta=dict(joint.meta))
        grid.check_normalization({n: np.trace(getattr(st, n)) for n in ("uu", "dd", "ud")})
        grids[tag] = grid
        path = outdir / f"wigner_{tag}.csv"
        wigner.write_grid_csv(path, grid, comments=_stamp_comments(config))
        x, y = grid.line_profile("uu")
        meta[tag] = {
            "normalization_ok": grid.meta.get("normalization_ok"),
            "normalization": grid.meta.get("normalization"),
            "uu_profile_maxima": wigner.profile_maxima(x, y.real),
            "file": path.name,
        }
    if len(grids) == 2:
        gap = max(
            float(np.max(np.abs(grids["true"].blocks[n] - grids["recon"].blocks[n])))
            for n in wigner.BLOCK_NAMES
        )
        meta["max_pointwise_gap"] = gap
    (outdir / "wigner_meta.json").write_text(json.dumps(meta))
    print(f"wigner export complete: {', '.join(sorted(grids))} -> {outdir}")
    return EXIT_OK


def cmd_verify(config, args, outdir):
    """Check every JSON, CSV and text output's stamp against the run's config
    hash, and the manifest's config_text and record files; with no manifest,
    each record file is a problem."""
    problems = []
    if not (outdir / "manifest.json").exists():
        unlisted = sorted(outdir.glob("records_g*.jsonl"))
        problems = [f"{p.name}: no manifest.json lists it" for p in unlisted]
    checked = 0
    for path in sorted([*outdir.glob("*.json"), *outdir.glob("*.csv"), *outdir.glob("*.txt")]):
        checked += 1
        if path.suffix == ".json":
            payload = _read_json_object(path)
            stamp = payload.get("config_hash")
        else:
            with path.open() as fh:
                head = [fh.readline().rstrip("\n").partition("=") for _ in range(4)]
            stamp = next((value for key, _, value in head if key == "# config_hash"), None)
        if stamp is None:
            problems.append(f"{path.name}: config_hash missing")
        elif stamp != config.config_hash():
            problems.append(f"{path.name}: config_hash mismatch")
        if path.name == "manifest.json":
            problems += _manifest_problems(path, payload)
            checked += len(payload.get("files", []))
    if checked == 0 and not problems:
        raise ConfigError(f"nothing to verify under {outdir}")
    if problems:
        for p in problems:
            print(f"verify: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"verify: {checked} hash stamps consistent under {outdir}")
    return EXIT_OK


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="wernerlike", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--force", action="store_true", help="allow overwriting outputs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="entropy/negativity/fidelity sweep to CSV")
    p.add_argument("--alpha-min", type=float, default=0.0)
    p.add_argument("--alpha-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=61)

    sub.add_parser("simulate", help="write record files for the three setting groups")

    p = sub.add_parser("reconstruct", help="invert record files into block estimates")
    p.add_argument("--records", help="directory with records_g*.jsonl (default: --out)")
    p.add_argument("--exact", action="store_true",
                   help="use exact marginals instead of record files")
    p.add_argument("--no-truth", dest="truth", action="store_false",
                   help="skip the comparison against the configured true state")

    p = sub.add_parser("wigner", help="export Wigner surfaces to CSV")
    p.add_argument("--source", choices=("true", "recon", "both"), default="true")
    p.add_argument("--spacing", type=float, default=0.1)
    p.add_argument("--re-pad", type=float, default=3.0)
    p.add_argument("--im-extent", type=float, default=3.0)
    p.add_argument("--reconstruction", help="path to reconstruction.json")

    sub.add_parser("verify", help="check embedded config hashes and record file hashes")
    return parser


_COMMANDS = {
    "metrics": cmd_metrics,
    "simulate": cmd_simulate,
    "reconstruct": cmd_reconstruct,
    "wigner": cmd_wigner,
}


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig.from_file(args.config) if args.config else RunConfig().validate()
    if args.seed is not None:
        config = replace(config, seed=args.seed).validate()
    outdir = Path(args.out)
    if args.command == "verify":  # reads only: no directory made, no lock taken
        return cmd_verify(config, args, outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with output_lock(outdir):
        return _COMMANDS[args.command](config, args, outdir)


def main(argv=None):
    try:
        return run(argv)
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
