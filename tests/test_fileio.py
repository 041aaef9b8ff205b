import pytest

from samlab import fileio


def _fail_mid_write(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError):
        with fileio.replacing(path) as fh:
            fh.write(b"half a ro")
            fh.flush()
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failure_mid_write_keeps_old_file_and_no_temp(tmp_path):
    _fail_mid_write(tmp_path, "runs.csv")


# A 255-byte name is the longest most file systems allow: the temp file
# must not be named after the target, or its name would be longer.
def test_failure_mid_write_at_the_file_name_limit_keeps_old_file(tmp_path):
    _fail_mid_write(tmp_path, "r" * 251 + ".csv")


def test_write_text_replaces_whole_file(tmp_path):
    path = tmp_path / "summary.json"
    path.write_text("a much longer previous file\n", encoding="utf-8")
    fileio.write_text(path, "{}\n")
    assert path.read_bytes() == b"{}\n"
    assert list(tmp_path.iterdir()) == [path]
