import filecmp
import os
import re
import stat

from slumix.jsonio import replacing, write_text


def test_interleaved_writers_leave_the_last_closed_whole(tmp_path):
    # Two writers of one path, the inner closed first: each puts a whole file
    # in place, so the path ends up holding the outer writer's text.
    path = tmp_path / "out.json"
    outer_text, inner_text = "outer\n" * 1000, "inner\n" * 10
    with replacing(path) as outer:
        outer.write(outer_text[:100])
        with replacing(path) as inner:
            inner.write(inner_text)
        assert path.read_text() == inner_text
        outer.write(outer_text[100:])
    assert path.read_text() == outer_text
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_unchanged_bytes_leave_the_file_as_it_is(tmp_path):
    # The same bytes written again keep the file itself: its inode, its hard
    # links and its time stamp. New bytes replace it with a new file.
    path, link = tmp_path / "out.csv", tmp_path / "link.csv"
    write_text(path, "a,b\n")
    os.link(path, link)
    os.utime(path, ns=(10**9, 10**9))
    before = path.stat()
    write_text(path, "a,b\n")
    after = path.stat()
    assert (after.st_ino, after.st_nlink, after.st_mtime_ns) == \
        (before.st_ino, 2, before.st_mtime_ns)
    write_text(path, "a,c\n")
    assert path.stat().st_ino != before.st_ino
    assert (path.read_text(), link.read_text()) == ("a,c\n", "a,b\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "out.csv"]


def test_unreadable_target_is_replaced(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("{}")

    def unreadable(a, b, shallow=True):
        raise PermissionError(13, "Permission denied", str(a))

    monkeypatch.setattr(filecmp, "cmp", unreadable)
    inode = path.stat().st_ino
    write_text(path, "{}")
    assert (path.read_text(), path.stat().st_ino != inode) == ("{}", True)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_umask_is_neither_read_nor_set(tmp_path, monkeypatch):
    # The kernel applies the umask to the new temporary file, so the writer
    # changes no process-wide state: it works with os.umask unusable.
    def no_umask(mask):
        raise AssertionError("os.umask called")

    plain = tmp_path / "plain.json"
    plain.write_text("{}")
    monkeypatch.setattr(os, "umask", no_umask)
    path = tmp_path / "out.json"
    write_text(path, "{}")
    assert path.stat().st_mode == plain.stat().st_mode
    path.chmod(0o600)
    write_text(path, "[]")
    assert (path.read_text(), stat.S_IMODE(path.stat().st_mode)) == ("[]", 0o600)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "plain.json"]


def test_temporary_name_is_random_and_beside_the_target(tmp_path, monkeypatch):
    names = []
    real_open = os.open

    def recording_open(name, *args):
        names.append(name)
        return real_open(name, *args)

    monkeypatch.setattr(os, "open", recording_open)
    path = tmp_path / "out.json"
    write_text(path, "{}")
    write_text(path, "[]")
    assert len(names) == 2 and names[0] != names[1]
    for name in names:
        assert re.fullmatch(re.escape(f"{path}.") + "[0-9a-f]{16}" + re.escape(".tmp"), name)
