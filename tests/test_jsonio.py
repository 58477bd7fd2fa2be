import filecmp
import os

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
