"""Unit + property tests for the in-memory container filesystem."""

import pytest
from hypothesis import given, strategies as st

from repro.container.fs import (
    FilesystemError,
    InMemoryFilesystem,
    normalize_path,
)


class TestPathNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b", "/a/b"),
            ("a/b", "/a/b"),
            ("/a//b/", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/../../x", "/x"),
            ("/", "/"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_path(raw) == expected

    def test_empty_rejected(self):
        with pytest.raises(FilesystemError):
            normalize_path("")

    @given(st.lists(st.sampled_from(["a", "b", ".", "..", "c"]), max_size=8))
    def test_normalized_is_idempotent(self, segments):
        path = "/" + "/".join(segments)
        once = normalize_path(path)
        assert normalize_path(once) == once
        assert once.startswith("/")
        assert ".." not in once.split("/")


class TestFileOperations:
    def test_write_read_roundtrip(self):
        fs = InMemoryFilesystem()
        fs.write_file("/etc/config", b"key=value")
        assert fs.read_file("/etc/config") == b"key=value"

    def test_missing_file_raises(self):
        fs = InMemoryFilesystem()
        with pytest.raises(FilesystemError):
            fs.read_file("/nope")

    def test_exists(self):
        fs = InMemoryFilesystem()
        fs.write_file("/x", b"")
        assert fs.exists("/x")
        assert fs.exists("x")  # path normalization
        assert not fs.exists("/y")

    def test_remove(self):
        fs = InMemoryFilesystem()
        fs.write_file("/x", b"1")
        fs.remove("/x")
        assert not fs.exists("/x")
        with pytest.raises(FilesystemError):
            fs.remove("/x")

    def test_chmod_and_executable(self):
        fs = InMemoryFilesystem()
        fs.write_file("/bin/tool", b"#!", mode=0o644)
        assert not fs.entry("/bin/tool").executable
        fs.chmod("/bin/tool", 0o755)
        assert fs.entry("/bin/tool").executable

    def test_append_creates_or_extends(self):
        fs = InMemoryFilesystem()
        fs.append("/log", b"one\n")
        fs.append("/log", b"two\n")
        assert fs.read_file("/log") == b"one\ntwo\n"

    def test_overwrite_replaces(self):
        fs = InMemoryFilesystem()
        fs.write_file("/x", b"old")
        fs.write_file("/x", b"new")
        assert fs.read_file("/x") == b"new"

    def test_list_dir_prefix(self):
        fs = InMemoryFilesystem()
        for path in ("/var/www/a", "/var/www/b", "/etc/x"):
            fs.write_file(path, b"")
        assert fs.list_dir("/var/www") == ["/var/www/a", "/var/www/b"]

    def test_total_bytes_and_count(self):
        fs = InMemoryFilesystem()
        fs.write_file("/a", b"12345")
        fs.write_file("/b", b"123")
        assert fs.total_bytes == 8
        assert fs.file_count == 2


class TestLayering:
    def test_clone_is_independent(self):
        base = InMemoryFilesystem()
        base.write_file("/shared", b"base")
        clone = base.clone()
        clone.write_file("/shared", b"changed")
        clone.write_file("/new", b"x")
        assert base.read_file("/shared") == b"base"
        assert not base.exists("/new")

    def test_clone_preserves_programs(self):
        def program(ctx):
            yield None

        base = InMemoryFilesystem()
        base.write_file("/bin/daemon", b"elf", mode=0o755, program=program)
        clone = base.clone()
        assert clone.entry("/bin/daemon").program is program

    def test_overlay_applies_on_top(self):
        lower = InMemoryFilesystem()
        lower.write_file("/a", b"lower")
        upper = InMemoryFilesystem()
        upper.write_file("/a", b"upper")
        upper.write_file("/b", b"only-upper")
        lower.overlay(upper)
        assert lower.read_file("/a") == b"upper"
        assert lower.read_file("/b") == b"only-upper"

    @given(
        st.dictionaries(
            st.from_regex(r"/[a-z]{1,6}(/[a-z]{1,6}){0,2}", fullmatch=True),
            st.binary(max_size=64),
            max_size=10,
        )
    )
    def test_clone_equals_original_property(self, files):
        fs = InMemoryFilesystem()
        for path, data in files.items():
            fs.write_file(path, data)
        clone = fs.clone()
        assert list(clone.walk()) == list(fs.walk())
        assert clone.total_bytes == fs.total_bytes
