import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from rackcoop import cli, codec, harness


def run_cli(*argv):
    return cli.main(list(argv))


def test_tradeoff_prints_corner_points(capsys):
    assert run_cli("tradeoff", "--params", "8,4,2,4,2,2", "--B", "18") == 0
    out = capsys.readouterr().out
    assert "MSRCR: alpha=9/2 beta1=9/4 beta2=9/4 gamma=27/4" in out
    assert "MBRCR: alpha=5 beta1=2 beta2=1 gamma=5" in out
    assert "B=18" in out.replace(" ", "") or "B = 18" in out


def test_tradeoff_sweep_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_cli(
        "tradeoff", "--params", "8,4,2,4,2,2", "--B", "18",
        "--sweep", "4", "--csv", str(out),
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["alpha_num", "alpha_den", "gamma_num", "gamma_den", "role"]
    assert len(rows) == 6
    assert rows[1][-1] == "MSRCR" and rows[-1][-1] == "MBRCR"


# Printed by the vertex-enumeration LP, which needs seconds per point at m = 6.
SWEEP_M6 = """\
params n=24 k=12 d=6 r=12 e=2 f=2 (m=6)
B = 1
MSRCR: alpha=1/12 beta1=1/24 beta2=1/24 gamma=7/24
MBRCR: alpha=13/126 beta1=1/63 beta2=1/126 gamma=13/126
construction: alpha=13 beta1=2 beta2=1 B=126 outer-code length=204
  alpha=1/12 gamma=7/24 MSRCR
  alpha=173/2016 gamma=941/4032 custom
  alpha=89/1008 gamma=767/4032 custom
  alpha=61/672 gamma=533/3360 custom
  alpha=47/504 gamma=39/280 custom
  alpha=193/2016 gamma=767/6048 custom
  alpha=11/112 gamma=13/112 custom
  alpha=29/288 gamma=221/2016 custom
  alpha=13/126 gamma=13/126 MBRCR
"""


def test_tradeoff_sweep_m6_stdout(capsys):
    assert run_cli("tradeoff", "--params", "24,12,6,12,2,2", "--B", "1", "--sweep", "8") == 0
    assert capsys.readouterr().out == SWEEP_M6


def test_verify_mincut_agreement(capsys):
    code = run_cli(
        "verify-mincut", "--params", "8,4,2,4,2,2",
        "--alpha", "5", "--beta1", "2", "--beta2", "1",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "bound (composition enumeration): 18" in out
    assert "oracle (flow-graph min over scenarios): 18" in out
    assert "AGREE" in out


def test_verify_mincut_rational_arguments(capsys):
    code = run_cli(
        "verify-mincut", "--params", "8,4,2,4,2,2",
        "--alpha", "9/2", "--beta1", "9/4", "--beta2", "9/4",
    )
    assert code == 0
    assert "AGREE" in capsys.readouterr().out


def test_verify_mincut_restricted_stages(capsys):
    """With fewer stages than m no composition of m may fit, so the oracle
    can exceed the bound; that is consistent, not an integrity failure."""
    code = run_cli(
        "verify-mincut", "--params", "16,8,4,8,2,2",
        "--alpha", "9", "--beta1", "2", "--beta2", "1", "--max-stages", "1",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "bound (composition enumeration): 60" in out
    assert "oracle (flow-graph min over scenarios): 66" in out
    assert "restricted family: at most 1 of m=4 stages" in out
    assert out.splitlines()[-1] == "CONSISTENT"


def test_malformed_rational_exit_1(capsys):
    code = run_cli(
        "verify-mincut", "--params", "8,4,2,4,2,2",
        "--alpha", "5..", "--beta1", "2", "--beta2", "1",
    )
    assert code == 1
    assert "rational" in capsys.readouterr().err


def test_invalid_params_exit_1(capsys):
    assert run_cli("tradeoff", "--params", "9,4,2,4,2,2", "--B", "18") == 1
    assert "invalid parameters" in capsys.readouterr().err


def test_unknown_flag_exit_1(capsys):
    assert run_cli("tradeoff", "--params", "8,4,2,4,2,2", "--B", "18", "--wat") == 1


def test_unknown_command_exit_1(capsys):
    assert run_cli("frobnicate") == 1


def test_encode_collect_repair_roundtrip(tmp_path, capsys):
    src = tmp_path / "message.bin"
    src.write_bytes(b"fourteen bytes")
    cluster = tmp_path / "cluster"
    assert run_cli(
        "encode", "--params", "8,4,2,4,2,2", "--seed", "7",
        "--in", str(src), "--out", str(cluster),
    ) == 0
    assert (cluster / "manifest.json").exists()
    assert (cluster / "rack_4" / "node_2.bin").stat().st_size == 5
    assert "collectors checked: 70 of 70 (exhaustive)" in capsys.readouterr().out

    recovered = tmp_path / "out.bin"
    assert run_cli(
        "collect", "--out", str(cluster),
        "--nodes", "1:1,2:2,3:1,4:2", "--recover", str(recovered),
    ) == 0
    assert recovered.read_bytes() == b"fourteen bytes"

    assert run_cli(
        "repair", "--dir", str(cluster),
        "--racks", "1,3", "--nodes", "2/1", "--helpers", "2,4",
    ) == 0
    out = capsys.readouterr().out
    assert "rack 1: 5 cross-rack symbols" in out
    assert "contents verified" in out

    # cluster still collectible after the repair cycle
    assert run_cli(
        "collect", "--out", str(cluster),
        "--nodes", "1:2,2:2,3:2,4:2", "--recover", str(recovered),
    ) == 0
    assert recovered.read_bytes() == b"fourteen bytes"


def test_encode_oversized_input_exit_1(tmp_path, capsys):
    src = tmp_path / "big.bin"
    src.write_bytes(os.urandom(64))
    code = run_cli(
        "encode", "--params", "8,4,2,4,2,2", "--seed", "7",
        "--in", str(src), "--out", str(tmp_path / "c"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "B = 18" in err


def test_encode_raw_requires_exact_symbols(tmp_path, capsys):
    src = tmp_path / "raw.bin"
    src.write_bytes(bytes(range(18)))
    assert run_cli(
        "encode", "--params", "8,4,2,4,2,2", "--seed", "7", "--raw",
        "--in", str(src), "--out", str(tmp_path / "c"),
    ) == 0
    src.write_bytes(bytes(range(17)))
    assert run_cli(
        "encode", "--params", "8,4,2,4,2,2", "--seed", "7", "--raw",
        "--in", str(src), "--out", str(tmp_path / "c2"),
    ) == 1
    assert "B = 18" in capsys.readouterr().err


def test_collect_stale_cluster_detected(tmp_path, capsys):
    src = tmp_path / "message.bin"
    src.write_bytes(b"hello")
    cluster = tmp_path / "cluster"
    run_cli("encode", "--params", "8,4,2,4,2,2", "--seed", "7",
            "--in", str(src), "--out", str(cluster))
    victim = cluster / "rack_2" / "node_2.bin"
    data = bytearray(victim.read_bytes())
    data[3] ^= 1
    victim.write_bytes(bytes(data))
    code = run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:2,4:2", "--recover", str(tmp_path / "o"))
    assert code == 2
    assert "integrity" in capsys.readouterr().err


def test_bench_smoke(capsys):
    assert run_cli("bench", "--params", "8,4,2,4,2,2", "--rounds", "2", "--probes", "3") == 0
    out = capsys.readouterr().out
    assert "2 repair rounds" in out
    assert "probes recovered: 3/3" in out
    # the benchmark names the exact code it measured by its certificate
    assert "(attempt 0, fingerprint d1bdf15c00b8913e)" in out
    assert "collectors checked: 70 of 70 (exhaustive)" in out


def test_bench_reports_sampled_collector_coverage(capsys):
    """Above 10,000 collectors the build checks 1,000 seeded draws; the
    report counts the distinct ones among them."""
    assert run_cli("bench", "--params", "16,8,4,8,2,2", "--rounds", "1", "--probes", "1") == 0
    assert "collectors checked: 969 distinct sampled of 12,870" in capsys.readouterr().out


def _encode_cluster(tmp_path):
    src = tmp_path / "message.bin"
    src.write_bytes(b"hello")
    cluster = tmp_path / "cluster"
    assert run_cli("encode", "--params", "8,4,2,4,2,2", "--seed", "7",
                   "--in", str(src), "--out", str(cluster)) == 0
    return cluster


def test_collect_out_of_range_node_exit_1(tmp_path, capsys):
    cluster = _encode_cluster(tmp_path)
    code = run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:2,9:1", "--recover", str(tmp_path / "o"))
    assert code == 1
    assert "(9, 1) out of range" in capsys.readouterr().err
    # a path of the wrong kind (a directory for a file, a file for a
    # directory) raises an OSError, which is a validation error too
    src = tmp_path / "message.bin"
    for argv in (
        ["collect", "--out", str(cluster), "--nodes", "1:2,2:2,3:2,4:2",
         "--recover", str(tmp_path)],
        ["encode", "--params", "8,4,2,4,2,2", "--in", str(tmp_path), "--out", str(tmp_path / "c")],
        ["encode", "--params", "8,4,2,4,2,2", "--in", str(src), "--out", str(src)],
        ["collect", "--out", str(src), "--nodes", "1:2,2:2,3:2,4:2",
         "--recover", str(tmp_path / "o")],
    ):
        assert run_cli(*argv) == 1, argv
        captured = capsys.readouterr()
        assert "directory" in captured.err and not captured.out, argv


def test_repair_out_of_range_rack_exit_1(tmp_path, capsys):
    cluster = _encode_cluster(tmp_path)
    before = {f: f.read_bytes() for f in sorted(cluster.rglob("*")) if f.is_file()}
    code = run_cli("repair", "--dir", str(cluster),
                   "--racks", "9,1", "--nodes", "1", "--helpers", "3,4")
    assert code == 1
    assert "rack 9 out of range" in capsys.readouterr().err
    # validated before any node was erased: the cluster is untouched
    assert {f: f.read_bytes() for f in sorted(cluster.rglob("*")) if f.is_file()} == before


def _set_seed(doc):
    doc["seed"] = "x"


def _drop_params(doc):
    del doc["params"]


def _stringify_n(doc):
    doc["params"]["n"] = "8"


def _scalar_erasure(doc):
    doc["erased"] = [5]


def _erasure_outside_cluster(doc):
    doc["erased"] = [[9, 9], [0, 1]]


def _erasure_node_past_rack(doc):
    doc["erased"] = [[1, 3]]  # a rack holds n/r = 2 nodes


def _repeated_erasure(doc):
    doc["erased"] = [[1, 1], [1, 1]]


def _negative_attempt(doc):
    doc["attempt"] = -1


def _attempt_past_last(doc):
    doc["attempt"] = codec.MAX_ATTEMPTS


def _stringify_attempt(doc):
    doc["attempt"] = "0"


def _drop_node_digest(doc):
    del doc["nodes"]["rack_1/node_1.bin"]


def _edit_fingerprint(doc):
    doc["fingerprint"] = ("0" if doc["fingerprint"][0] != "0" else "1") + doc["fingerprint"][1:]


@pytest.mark.parametrize("edit, named", [
    (_drop_params, "'params'"),
    (_set_seed, "'seed'"),
    (_stringify_n, "'params.n'"),
    (_scalar_erasure, "'erased'"),
    (_erasure_outside_cluster, "'erased'"),
    (_erasure_node_past_rack, "'erased'"),
    (_repeated_erasure, "'erased'"),
    ("{not json", "not JSON"),
    ("[1, 2]", "JSON list"),
    (_negative_attempt, "'attempt'"),
    (_attempt_past_last, "'attempt'"),
    (_stringify_attempt, "'attempt'"),
    (_drop_node_digest, "'nodes'"),
    (_edit_fingerprint, "fingerprint"),
])
def test_collect_malformed_manifest_exit_2(tmp_path, capsys, edit, named):
    cluster = _encode_cluster(tmp_path)
    manifest = cluster / "manifest.json"
    if callable(edit):
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
    else:
        manifest.write_text(edit)
    code = run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:2,4:2", "--recover", str(tmp_path / "o"))
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["tradeoff", "--params", "8,4,2,4,2,2", "--B", "18", "--sweep", "-1"], "--sweep"),
    (["verify-mincut", "--params", "8,4,2,4,2,2", "--alpha", "5", "--beta1", "2",
      "--beta2", "1", "--max-stages", "0"], "--max-stages"),
    (["bench", "--params", "8,4,2,4,2,2", "--probes", "-1"], "--probes"),
    (["bench", "--params", "8,4,2,4,2,2", "--rounds", "two"], "--rounds"),
])
def test_out_of_range_count_option_exit_1(capsys, argv, named):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert named in captured.err and not captured.out


def _edit_manifest(cluster, edit):
    manifest = cluster / "manifest.json"
    doc = json.loads(manifest.read_text())
    edit(doc)
    manifest.write_text(json.dumps(doc))


def test_stale_seed_detected_by_fingerprint(tmp_path, capsys):
    """At (10,5,1,2,1,1) k*alpha = B: a collector has no redundant symbol, so
    only the code's fingerprint can tell that the seed no longer names it."""
    src = tmp_path / "raw.bin"
    src.write_bytes(bytes(range(1, 11)))
    cluster = tmp_path / "cluster"
    assert run_cli("encode", "--params", "10,5,1,2,1,1", "--raw",
                   "--in", str(src), "--out", str(cluster)) == 0
    assert json.loads((cluster / "manifest.json").read_text())["attempt"] == 1
    collect = ["collect", "--out", str(cluster), "--raw",
               "--nodes", "1:1,1:2,1:3,2:1,2:2", "--recover", str(tmp_path / "o")]
    assert run_cli(*collect) == 0
    assert (tmp_path / "o").read_bytes() == bytes(range(1, 11))
    _edit_manifest(cluster, lambda doc: doc.update(seed=5))
    capsys.readouterr()
    assert run_cli(*collect) == 2
    assert "fingerprint" in capsys.readouterr().err


def test_collect_survives_missing_node_file(tmp_path, capsys):
    cluster = _encode_cluster(tmp_path)
    (cluster / "rack_4" / "node_1.bin").unlink()
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:1,3:2", "--recover", str(out)) == 0
    assert out.read_bytes() == b"hello"
    assert "rack_4/node_1.bin is missing" in capsys.readouterr().err
    # a collector that needs the lost node is refused, not decoded
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:1,4:1", "--recover", str(out)) == 1
    assert "(4, 1) is erased" in capsys.readouterr().err


def _dir_files(cluster):
    return {str(f.relative_to(cluster)): f.read_bytes() for f in sorted(cluster.rglob("*.*"))}


def _flip_byte(path):
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))


def test_repair_writes_only_the_rebuilt_files(tmp_path):
    """Every file's modification time is set to the epoch first, so a write,
    however it is made, shows as a newer one."""
    cluster = _encode_cluster(tmp_path)
    before = _dir_files(cluster)
    for name in before:
        os.utime(cluster / name, ns=(0, 0))
    assert run_cli("repair", "--dir", str(cluster),
                   "--racks", "1,3", "--nodes", "2/1", "--helpers", "2,4") == 0
    written = {name for name in before if (cluster / name).stat().st_mtime_ns}
    assert written == {"rack_1/node_2.bin", "rack_3/node_1.bin", "manifest.json"}
    assert _dir_files(cluster) == before


def test_collect_reads_only_its_collector(tmp_path, monkeypatch, capsys):
    """A corrupt node file outside the collector is never read; inside the
    collector it still fails its digest."""
    cluster = _encode_cluster(tmp_path)
    _flip_byte(cluster / "rack_4" / "node_1.bin")

    def save(*args, **kwargs):
        raise AssertionError("collect must not save the cluster it read in part")

    monkeypatch.setattr(harness, "save", save)
    read = []
    real_read = Path.read_bytes

    def read_bytes(path):
        read.append(path.name if path.suffix == ".json" else f"{path.parent.name}/{path.name}")
        return real_read(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:1,3:2", "--recover", str(out)) == 0
    assert sorted(read) == ["manifest.json", "rack_1/node_2.bin", "rack_2/node_2.bin",
                            "rack_3/node_1.bin", "rack_3/node_2.bin"]
    monkeypatch.undo()
    assert out.read_bytes() == b"hello"
    capsys.readouterr()
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:2,3:1,4:1", "--recover", str(out)) == 2
    assert "rack_4/node_1.bin does not match its digest" in capsys.readouterr().err


def _node_files(cluster):
    return {f.relative_to(cluster): f.read_bytes() for f in sorted(cluster.glob("rack_*/*.bin"))}


def test_v2_commands_do_not_reverify_the_code(tmp_path, monkeypatch):
    cluster = _encode_cluster(tmp_path)
    before = _node_files(cluster)

    def verify(spec):
        raise AssertionError("collect and repair must load the certified code")

    monkeypatch.setattr(codec, "_verify_spec", verify)
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:1,2:2,3:1,4:2", "--recover", str(out)) == 0
    assert out.read_bytes() == b"hello"
    assert run_cli("repair", "--dir", str(cluster),
                   "--racks", "1,3", "--nodes", "2/1", "--helpers", "2,4") == 0
    assert _node_files(cluster) == before


def test_v1_cluster_collects_and_repairs_to_v2(tmp_path, monkeypatch):
    """A layout-v1 cluster (seed and one digest over all node files, no
    certificate) still loads through the verified build; repair re-saves it
    as v2 with the same node bytes."""
    cluster = _encode_cluster(tmp_path)
    before = _node_files(cluster)
    h = hashlib.sha256()
    for name, data in before.items():  # rack-major, node-minor: the v1 order
        h.update(f"{name}:{len(data)}:".encode())
        h.update(data)

    def to_v1(doc):
        for key in ("attempt", "fingerprint", "nodes"):
            del doc[key]
        doc.update(layout_version=1, digest=h.hexdigest())

    _edit_manifest(cluster, to_v1)
    verified = []
    real_verify = codec._verify_spec

    def verify(spec):
        verified.append(spec)
        return real_verify(spec)

    monkeypatch.setattr(codec, "_verify_spec", verify)
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:1,2:2,3:1,4:2", "--recover", str(out)) == 0
    assert out.read_bytes() == b"hello" and verified
    assert run_cli("repair", "--dir", str(cluster),
                   "--racks", "1,3", "--nodes", "2/1", "--helpers", "2,4") == 0
    doc = json.loads((cluster / "manifest.json").read_text())
    assert doc["layout_version"] == 2 and "digest" not in doc
    assert doc["attempt"] == verified[-1].attempt
    assert _node_files(cluster) == before
    verified.clear()
    assert run_cli("collect", "--out", str(cluster),
                   "--nodes", "1:2,2:1,3:2,4:1", "--recover", str(out)) == 0
    assert out.read_bytes() == b"hello" and not verified


def test_collect_names_the_code_when_a_collector_cannot_decode(tmp_path, capsys):
    """At (16,7,1,4,1,1) seed 0 the build accepts attempt 21 on a sampled
    collector check, and this collector has rank 13 < B = 14 on an intact
    cluster: the failure is the code's, not corruption."""
    src = tmp_path / "message.bin"
    src.write_bytes(b"hello")
    cluster = tmp_path / "cluster"
    assert run_cli("encode", "--params", "16,7,1,4,1,1", "--seed", "0",
                   "--in", str(src), "--out", str(cluster)) == 0
    assert "collectors checked: 956 distinct sampled of 11,440" in capsys.readouterr().out
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster), "--nodes", "1:1,1:2,1:4,2:1,2:3,3:1,3:4",
                   "--recover", str(out)) == 2
    err = capsys.readouterr().err
    assert ("this code cannot decode collector [(1, 1), (1, 2), (1, 4), (2, 1), (2, 3), "
            "(3, 1), (3, 4)] (column rank 13 < 14") in err
    assert "collectors checked at build: 956 distinct sampled of 11,440" in err
    assert "corrupt" not in err
    assert run_cli("collect", "--out", str(cluster), "--nodes", "1:1,1:2,1:3,2:1,2:3,3:1,3:4",
                   "--recover", str(out)) == 0
    assert out.read_bytes() == b"hello"


def test_collect_names_corruption_when_redundant_symbols_disagree(tmp_path, capsys):
    """A node file whose digest was recorded after it went bad passes load;
    the collector's redundant symbols then expose it."""
    cluster = _encode_cluster(tmp_path)
    victim = cluster / "rack_2" / "node_2.bin"
    _flip_byte(victim)
    digest = hashlib.sha256(victim.read_bytes()).hexdigest()
    _edit_manifest(cluster, lambda doc: doc["nodes"].update({"rack_2/node_2.bin": digest}))
    assert run_cli("collect", "--out", str(cluster), "--nodes", "1:2,2:2,3:2,4:2",
                   "--recover", str(tmp_path / "o")) == 2
    assert ("redundant symbols disagree (inconsistent linear system): "
            "a collector node is corrupt") in capsys.readouterr().err


@pytest.mark.parametrize("params, payload, collector, failure, manifest_sha256", [
    ("8,4,2,4,2,2", b"rack-aware coo", "1:1,2:2,3:1,4:2", ("1,3", "2/1", "2,4"),
     "41051052e5d4dfdf83a46b43af663d32a2ebf2622bf551ef1d5db8de24de5a3b"),
    ("16,8,4,8,2,2", b"rack-aware coo", "1:1,2:2,3:1,4:2,5:1,6:2,7:1,8:2",
     ("1,5", "2/1", "2,3,4,6"),
     "7b3a4aa01635626855a3392021c002a162bf17bc86cc7b960e15e3642462f3a5"),
    ("10,5,1,2,1,1", b"rack-a", "1:1,1:3,2:2,2:4,2:5", ("1", "3", "2"),
     "9ced3aee205db6fff0e4a6af7ba0917db4ca069182f168bd0afb64cdc6e7bf51"),
])
def test_cluster_bytes_pinned(tmp_path, params, payload, collector, failure, manifest_sha256):
    """The manifest records the code's fingerprint and every node file's
    SHA-256, so its own digest pins the cluster's bytes.  Encode writes, and
    repair restores, exactly the cluster earlier releases wrote."""
    src = tmp_path / "message.bin"
    src.write_bytes(payload)
    cluster = tmp_path / "cluster"
    manifest = cluster / "manifest.json"
    assert run_cli("encode", "--params", params, "--seed", "0",
                   "--in", str(src), "--out", str(cluster)) == 0
    assert hashlib.sha256(manifest.read_bytes()).hexdigest() == manifest_sha256
    out = tmp_path / "o"
    assert run_cli("collect", "--out", str(cluster), "--nodes", collector,
                   "--recover", str(out)) == 0
    assert out.read_bytes() == payload
    before = _dir_files(cluster)
    racks, nodes, helpers = failure
    assert run_cli("repair", "--dir", str(cluster), "--racks", racks, "--nodes", nodes,
                   "--helpers", helpers) == 0
    assert _dir_files(cluster) == before
