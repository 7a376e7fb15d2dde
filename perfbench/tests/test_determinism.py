"""fig8's output does not depend on the worker count."""

from coopfb import cli


def test_fig8_csv_at_two_workers_matches_one_worker(tmp_path):
    for workers in (1, 2):
        argv = ["fig8", "--trials", "8", "--seed", "11", "--workers", str(workers)]
        assert cli.run(argv + ["--out-dir", str(tmp_path / str(workers))]) == 0
    assert (tmp_path / "1" / "fig8.csv").read_bytes() == (tmp_path / "2" / "fig8.csv").read_bytes()
    assert (tmp_path / "1" / "fig8.json").read_bytes() == (tmp_path / "2" / "fig8.json").read_bytes()
