"""Command line interface.

Subcommands:

- ``encode``        pack a file into a cluster directory
- ``collect``       recover the file from k chosen nodes
- ``repair``        erase the named nodes and rebuild them in place
- ``tradeoff``      print/export the storage vs bandwidth corner points and curve
- ``verify-mincut`` compare the analytic file-size bound with the flow-graph oracle
- ``bench``         run seeded failure rounds with bandwidth accounting

Exit codes: 0 success, 1 validation error (bad arguments or inputs),
2 integrity or assertion failure.  Rationals are written ``p/q``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import codec, harness, ifg, params as params_mod, tradeoff
from .field import Field, FieldError, gf256, gf65536, prime_field

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INTEGRITY = 2


class CliError(Exception):
    """Validation-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _fmt(x) -> str:
    fr = Fraction(x)
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _parse_params(text: str) -> params_mod.CodeParams:
    parts = text.split(",")
    if len(parts) != 6:
        raise CliError(f"--params needs n,k,d,r,e,f (got {text!r})")
    try:
        vals = [int(x) for x in parts]
    except ValueError:
        raise CliError(f"--params must be integers (got {text!r})") from None
    try:
        return params_mod.validate(*vals)
    except params_mod.ParameterError as exc:
        raise CliError(f"invalid parameters: {exc}") from None


def _count(minimum: int):
    """argparse ``type=`` for an integer option >= ``minimum``; argparse
    reports a rejected value through ``_Parser.error``, i.e. as ``CliError``."""

    def count(text: str) -> int:
        value = int(text)  # a ValueError reads "invalid count value: ..."
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return count


def _parse_rational(text: str, name: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{name} must be a rational like 9/2, got {text!r}") from None
    if value < 0:
        raise CliError(f"{name} must be nonnegative")
    return value


def _build_spec(p: params_mod.CodeParams, field_text: str | None, seed: int,
                *, packed: bool = False) -> codec.CodeSpec:
    """Build the code; ``packed`` refuses a non-binary field before building."""
    if field_text is None:
        return codec.build_default_code(p, seed)
    if field_text == "gf256":
        f: Field = gf256()
    elif field_text == "gf65536":
        f = gf65536()
    elif field_text.startswith("prime:"):
        try:
            f = prime_field(int(field_text.split(":", 1)[1]))
        except Exception as exc:
            raise CliError(f"bad prime field {field_text!r}: {exc}") from None
    else:
        raise CliError(f"unknown field {field_text!r} (use gf256, gf65536, or prime:P)")
    if packed:
        _require_binary(f)
    return codec.build_code(p, f, seed)


def _parse_nodes(text: str) -> list[tuple[int, int]]:
    out = []
    for item in text.split(","):
        try:
            rack, node = item.split(":")
            out.append((int(rack), int(node)))
        except ValueError:
            raise CliError(f"node id {item!r} must look like rack:node, e.g. 2:1") from None
    return out


def _parse_failures(racks_text: str, nodes_text: str) -> dict[int, tuple[int, ...]]:
    try:
        racks = [int(x) for x in racks_text.split(",")]
    except ValueError:
        raise CliError(f"--racks must be integers, got {racks_text!r}") from None
    groups = nodes_text.split("/")
    if len(groups) == 1:
        groups = groups * len(racks)
    if len(groups) != len(racks):
        raise CliError(
            f"--nodes has {len(groups)} groups for {len(racks)} racks; "
            "use one comma list per rack separated by '/'"
        )
    failed = {}
    for rack, group in zip(racks, groups):
        try:
            failed[rack] = tuple(int(x) for x in group.split(","))
        except ValueError:
            raise CliError(f"bad node list {group!r}") from None
    return failed


# -- message packing ------------------------------------------------------

_LENGTH_HEADER = 4  # bytes


def _require_binary(field: Field) -> None:
    if field.spec.kind != "binary-extension":
        # A prime-field symbol cannot hold an arbitrary byte group.
        raise CliError("the packed file format needs a binary field; use --raw")


def pack_message(data: bytes, spec: codec.CodeSpec) -> np.ndarray:
    """Length header + payload + zero padding, as exactly B field symbols."""
    _require_binary(spec.field)
    width = spec.field.symbol_bytes
    capacity = spec.file_size * width - _LENGTH_HEADER
    if len(data) > capacity:
        raise CliError(
            f"input is {len(data)} bytes but the code stores B = {spec.file_size} "
            f"symbols = {capacity} payload bytes"
        )
    raw = len(data).to_bytes(_LENGTH_HEADER, "little") + data
    raw += b"\0" * (spec.file_size * width - len(raw))
    return spec.field.from_bytes(raw)


def unpack_message(symbols: np.ndarray, spec: codec.CodeSpec) -> bytes:
    """The payload of :func:`pack_message`'s symbols."""
    _require_binary(spec.field)
    raw = spec.field.to_bytes(symbols)
    length = int.from_bytes(raw[:_LENGTH_HEADER], "little")
    payload = raw[_LENGTH_HEADER:]
    if length > len(payload):
        raise CliError(f"corrupt length header ({length} > {len(payload)})")
    return payload[:length]


def read_message_file(path: str, spec: codec.CodeSpec, raw: bool) -> np.ndarray:
    data = Path(path).read_bytes()
    if not raw:
        return pack_message(data, spec)
    try:
        symbols = spec.field.from_bytes(data)
    except FieldError as exc:
        raise CliError(f"raw message not decodable in this field: {exc}") from None
    if symbols.size != spec.file_size:
        raise CliError(
            f"raw message has {symbols.size} symbols but B = {spec.file_size}"
        )
    return symbols


# -- subcommands ----------------------------------------------------------


def _cmd_encode(args) -> int:
    p = _parse_params(args.params)
    spec = _build_spec(p, args.field, args.seed, packed=not args.raw)
    message = read_message_file(args.infile, spec, args.raw)
    state = codec.encode(spec, message)
    manifest = harness.save(state, spec, args.out)
    print(f"encoded {spec.file_size} symbols over field of order {spec.field.order}")
    print(f"cluster written to {args.out} (attempt {manifest.attempt}, "
          f"fingerprint {manifest.fingerprint[:16]})")
    print(f"collectors checked: {codec.collector_coverage(spec)}")
    return EXIT_OK


def _cmd_collect(args) -> int:
    nodes = _parse_nodes(args.nodes)
    state, spec = harness.load(args.out, nodes=nodes)
    message = codec.collect(spec, state, nodes)
    data = spec.field.to_bytes(message) if args.raw else unpack_message(message, spec)
    Path(args.recover).write_bytes(data)
    print(f"recovered {len(data)} bytes from {len(nodes)} nodes into {args.recover}")
    return EXIT_OK


def _cmd_repair(args) -> int:
    failed = _parse_failures(args.racks, args.nodes)
    try:
        helpers = tuple(int(x) for x in args.helpers.split(","))
    except ValueError:
        raise CliError(f"--helpers must be integers, got {args.helpers!r}") from None
    stage = params_mod.RepairStage.make(failed, helpers)
    state, spec = harness.load(args.dir)
    transcript = harness.repair_round(spec, state, stage)
    rebuilt = [(rack, i) for rack, idxs in stage.failed for i in idxs]
    harness.save(state, spec, args.dir, nodes=rebuilt)
    for rack in stage.racks:
        print(f"rack {rack}: {transcript.cross_symbols(rack)} cross-rack symbols")
    for helper, dst, count in transcript.round1:
        print(f"  round1 helper {helper} -> rack {dst}: {count}")
    for src, dst, count in transcript.round2:
        print(f"  round2 rack {src} -> rack {dst}: {count}")
    print("repair complete; contents verified against pre-failure state, "
          f"gamma = {spec.layout.gamma} per failed rack")
    return EXIT_OK


def _cmd_tradeoff(args) -> int:
    p = _parse_params(args.params)
    b = _parse_rational(args.B, "--B")
    if b <= 0:
        raise CliError("--B must be positive")
    ms = params_mod.msrcr_point(p, b)
    mb = params_mod.mbrcr_point(p, b)
    print(f"params n={p.n} k={p.k} d={p.d} r={p.r} e={p.e} f={p.f} (m={p.m})")
    print(f"B = {_fmt(b)}")
    for pt in (ms, mb):
        print(
            f"{pt.role}: alpha={_fmt(pt.alpha)} beta1={_fmt(pt.beta1)} "
            f"beta2={_fmt(pt.beta2)} gamma={_fmt(pt.gamma)}"
        )
    lay = params_mod.construction_params(p)
    print(
        f"construction: alpha={lay.alpha} beta1={lay.beta1} beta2={lay.beta2} "
        f"B={lay.file_size} outer-code length={lay.n_global}"
    )
    if args.sweep:
        points = tradeoff.sweep_curve(p, b, args.sweep)
        if args.csv:
            tradeoff.write_curve_csv(points, args.csv)
            print(f"curve with {len(points)} points written to {args.csv}")
        else:
            for pt in points:
                print(f"  alpha={_fmt(pt.alpha)} gamma={_fmt(pt.gamma)} {pt.role}")
    elif args.csv:
        tradeoff.write_curve_csv([ms, mb], args.csv)
        print(f"corner points written to {args.csv}")
    return EXIT_OK


def _cmd_verify_mincut(args) -> int:
    p = _parse_params(args.params)
    alpha = _parse_rational(args.alpha, "--alpha")
    beta1 = _parse_rational(args.beta1, "--beta1")
    beta2 = _parse_rational(args.beta2, "--beta2")
    bound = tradeoff.max_file_size(p, alpha, beta1, beta2)
    worst = ifg.worst_case_mincut(
        p, alpha, beta1, beta2, max_stages=args.max_stages, seed=args.seed
    )
    print(f"bound (composition enumeration): {_fmt(bound.value)}")
    print(f"  minimizing compositions: {[list(u) for u in bound.minimizers]}")
    print(f"oracle (flow-graph min over scenarios): {_fmt(worst.value)}")
    print(f"  witness: {worst.scenario.tag}")
    for s, stage in enumerate(worst.scenario.history, start=1):
        print(f"    stage {s}: failed {dict(stage.failed)} helpers {list(stage.helpers)}")
    print(f"    collector: {list(worst.scenario.collector)}")
    if args.max_stages is not None and args.max_stages < p.m:
        # Fewer scenarios can only raise the minimum cut, never lower it.
        print(f"restricted family: at most {args.max_stages} of m={p.m} stages, "
              "so the oracle may exceed the bound")
        if worst.value >= bound.value:
            print("CONSISTENT")
            return EXIT_OK
        print("DISAGREE")
        return EXIT_INTEGRITY
    if bound.value == worst.value:
        print("AGREE")
        return EXIT_OK
    print("DISAGREE")
    return EXIT_INTEGRITY


def _cmd_bench(args) -> int:
    p = _parse_params(args.params)
    t0 = time.perf_counter()
    spec = _build_spec(p, args.field, args.seed)
    build_s = time.perf_counter() - t0
    import random as _random

    rng = _random.Random(args.seed)
    message = np.array(
        [rng.randrange(spec.field.order) for _ in range(spec.file_size)], dtype=np.int64
    )
    state = codec.encode(spec, message)
    scenario = harness.random_scenario(p, args.seed, args.rounds, args.probes)
    t0 = time.perf_counter()
    report = harness.run_scenario(spec, state, scenario, expected_message=message)
    run_s = time.perf_counter() - t0
    print(report.format())
    print(f"build {build_s:.3f}s (attempt {spec.attempt}, fingerprint {spec.fingerprint[:16]}), "
          f"{args.rounds} rounds + {args.probes} probes {run_s:.3f}s")
    print(f"collectors checked: {codec.collector_coverage(spec)}")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser unchanged, so one instance serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="rackcoop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common_params(sp):
        sp.add_argument("--params", required=True, metavar="n,k,d,r,e,f")

    sp = sub.add_parser("encode", help="encode a file into a cluster directory")
    common_params(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--field", default=None, help="gf256, gf65536, or prime:P")
    sp.add_argument("--raw", action="store_true",
                    help="input must be exactly B symbols, no header/padding")
    sp.set_defaults(func=_cmd_encode)

    sp = sub.add_parser("collect", help="recover the file from k nodes")
    sp.add_argument("--out", required=True, help="cluster directory")
    sp.add_argument("--nodes", required=True, help="comma list of rack:node ids")
    sp.add_argument("--recover", required=True, help="output file")
    sp.add_argument("--raw", action="store_true")
    sp.set_defaults(func=_cmd_collect)

    sp = sub.add_parser("repair", help="erase the named nodes and rebuild them")
    sp.add_argument("--dir", required=True, help="cluster directory")
    sp.add_argument("--racks", required=True, help="comma list of failed racks")
    sp.add_argument("--nodes", required=True,
                    help="failed node indices; one list, or per-rack lists joined by '/'")
    sp.add_argument("--helpers", required=True, help="comma list of helper racks")
    sp.set_defaults(func=_cmd_repair)

    sp = sub.add_parser("tradeoff", help="corner points and tradeoff curve")
    common_params(sp)
    sp.add_argument("--B", required=True, help="file size (rational p/q allowed)")
    sp.add_argument("--sweep", type=_count(0), default=0, metavar="STEPS")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=_cmd_tradeoff)

    sp = sub.add_parser("verify-mincut", help="bound vs flow-graph oracle")
    common_params(sp)
    sp.add_argument("--alpha", required=True)
    sp.add_argument("--beta1", required=True)
    sp.add_argument("--beta2", required=True)
    sp.add_argument("--max-stages", type=_count(1), default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify_mincut)

    sp = sub.add_parser("bench", help="seeded failure rounds with accounting")
    common_params(sp)
    sp.add_argument("--rounds", type=_count(0), default=5)
    sp.add_argument("--probes", type=_count(0), default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--field", default=None)
    sp.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (params_mod.ParameterError, codec.EncodingError, params_mod.RepairPatternError,
            codec.CodeBuildError, FieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (codec.CodeIntegrityError, harness.ClusterIntegrityError,
            harness.LayoutVersionError, harness.ScenarioError) as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
