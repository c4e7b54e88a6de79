import csv
import os

from rackcoop import cli


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


def test_repair_out_of_range_rack_exit_1(tmp_path, capsys):
    cluster = _encode_cluster(tmp_path)
    before = {f: f.read_bytes() for f in sorted(cluster.rglob("*")) if f.is_file()}
    code = run_cli("repair", "--dir", str(cluster),
                   "--racks", "9,1", "--nodes", "1", "--helpers", "3,4")
    assert code == 1
    assert "rack 9 out of range" in capsys.readouterr().err
    # validated before any node was erased: the cluster is untouched
    assert {f: f.read_bytes() for f in sorted(cluster.rglob("*")) if f.is_file()} == before
