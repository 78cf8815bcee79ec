import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import UTF8_TEXT
from lesionprep.dataset import (
    LABELS,
    SPLITS,
    ManifestEntry,
    SplitConfig,
    Xoshiro256StarStar,
    format_manifest,
    parse_manifest,
    read_manifest,
    scan_dataset,
    split_train_val,
    write_manifest,
)

# a carriage return inside an unquoted field, which the csv module rejects
BARE_CR_MANIFEST = "path,label,split\na.ppm,benign,tr\rain\n"
MANIFEST_TOKENS = st.sampled_from([
    "a.ppm", "benign", "malignant", "train", "val", "test", "x",
    ",", " ", "\n", "\r", "\r\n", '"', "\x00",
])
# every path `scan_dataset` accepts: printable text, the csv specials included
PRINTABLE_PATHS = st.text(st.characters(exclude_categories=("C", "Z")) | st.sampled_from(' ",'))
ENTRIES = st.lists(
    st.builds(ManifestEntry, PRINTABLE_PATHS, st.sampled_from(LABELS), st.sampled_from(SPLITS)),
    unique_by=lambda e: e.path,
)
BOM = b"\xef\xbb\xbf"
# quotes, commas, a leading space, non-ASCII letters and the empty path
AWKWARD_ENTRIES = [ManifestEntry(p, "benign", "train") for p in ['a "b", c.ppm', ' lead.ppm', '"q', "é/ü ß.ppm", ""]]


def make_tree(root, layout):
    """layout: {(top, label): n_files}"""
    for (top, label), n in layout.items():
        d = root / top / label
        d.mkdir(parents=True)
        for i in range(n):
            (d / f"img{i:04d}.ppm").write_bytes(b"P6 1 1 255\n\x00\x00\x00")


def entries_of(label, n, split="train"):
    return [ManifestEntry(f"{split}/{label}/img{i:04d}.ppm", label, split) for i in range(n)]


class TestScan:
    def test_basic_layout(self, tmp_path):
        make_tree(tmp_path, {("train", "benign"): 2, ("train", "malignant"): 3})
        entries = scan_dataset(tmp_path)
        assert len(entries) == 5
        assert all(e.split == "train" for e in entries)
        assert sum(e.label == "malignant" for e in entries) == 3
        assert [e.path for e in entries] == sorted(e.path for e in entries)

    def test_train_and_test_splits(self, tmp_path):
        make_tree(tmp_path, {("train", "benign"): 1, ("test", "malignant"): 2})
        entries = scan_dataset(tmp_path)
        assert {e.split for e in entries} == {"train", "test"}

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan_dataset(tmp_path / "nope")

    def test_unknown_class_dir(self, tmp_path):
        (tmp_path / "train" / "weird").mkdir(parents=True)
        with pytest.raises(ValueError, match="unknown class"):
            scan_dataset(tmp_path)

    def test_empty_class_dirs(self, tmp_path):
        (tmp_path / "train" / "benign").mkdir(parents=True)
        with pytest.raises(ValueError, match="no images"):
            scan_dataset(tmp_path)

    @pytest.mark.parametrize("stray, named", [
        ("train/stray.ppm", "train/stray.ppm"),
        ("Test/malignant/t.ppm", "Test"),
        ("extra/x.ppm", "extra"),
    ])
    def test_refuses_an_image_outside_the_layout(self, tmp_path, stray, named):
        make_tree(tmp_path, {("train", "benign"): 1})
        path = tmp_path / stray
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        with pytest.raises(ValueError) as exc:
            scan_dataset(tmp_path)
        assert repr(named) in str(exc.value)

    def test_ignores_hidden_entries_and_files_at_the_top(self, tmp_path):
        make_tree(tmp_path, {("train", "benign"): 1})
        for rel in (".git/config", "train/.DS_Store", "train/benign/.thumb.ppm", "manifest.csv"):
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(b"")
        assert [e.path for e in scan_dataset(tmp_path)] == ["train/benign/img0000.ppm"]

    @pytest.mark.parametrize("hidden", [
        "train/benign/.ipynb_checkpoints/a-checkpoint.ppm",
        "train/.ipynb_checkpoints/benign/a-checkpoint.ppm",
        "test/malignant/sub/.cache/deep/x.ppm",
    ])
    def test_ignores_hidden_directories_at_every_depth(self, tmp_path, hidden):
        make_tree(tmp_path, {("train", "benign"): 1})
        (tmp_path / hidden).parent.mkdir(parents=True)
        (tmp_path / hidden).write_bytes(b"P6 1 1 255\n\x00\x00\x00")
        assert [e.path for e in scan_dataset(tmp_path)] == ["train/benign/img0000.ppm"]

    @pytest.mark.parametrize("name", ["odd\rname.ppm", "line\nbreak.ppm", "tab\there.ppm", "del\x7f.ppm"])
    def test_refuses_unprintable_name(self, tmp_path, name):
        make_tree(tmp_path, {("train", "benign"): 1})
        (tmp_path / "train" / "benign" / name).write_bytes(b"")
        with pytest.raises(ValueError) as exc:
            scan_dataset(tmp_path)
        assert repr(f"train/benign/{name}") in str(exc.value)


class TestSplit:
    def test_single_class_fraction(self):
        out = split_train_val(entries_of("benign", 100), SplitConfig(seed=1))
        assert sum(e.split == "train" for e in out) == 75
        assert sum(e.split == "val" for e in out) == 25

    def test_floor_per_class_totals(self):
        entries = entries_of("benign", 1440) + entries_of("malignant", 1197)
        out = split_train_val(entries, SplitConfig(seed=9))
        # floor(1440*.75) + floor(1197*.75) = 1080 + 897
        assert sum(e.split == "train" for e in out) == 1977
        assert sum(e.split == "val" for e in out) == 660
        by_label = {
            label: sum(e.split == "train" for e in out if e.label == label)
            for label in ("benign", "malignant")
        }
        assert by_label == {"benign": 1080, "malignant": 897}

    def test_partition_preserves_entries(self):
        entries = entries_of("benign", 40) + entries_of("malignant", 17)
        out = split_train_val(entries, SplitConfig(seed=3))
        assert sorted((e.path, e.label) for e in out) == sorted(
            (e.path, e.label) for e in entries
        )

    def test_deterministic_per_seed(self):
        entries = entries_of("benign", 50) + entries_of("malignant", 50)
        a = split_train_val(entries, SplitConfig(seed=7))
        b = split_train_val(entries, SplitConfig(seed=7))
        assert a == b
        assert format_manifest(a) == format_manifest(b)

    def test_different_seeds_differ(self):
        entries = entries_of("benign", 100)
        base = split_train_val(entries, SplitConfig(seed=0))
        assert any(
            split_train_val(entries, SplitConfig(seed=s)) != base for s in range(1, 11)
        )

    def test_rejects_non_train_entries(self):
        with pytest.raises(ValueError, match="split 'test'"):
            split_train_val(entries_of("benign", 3, split="test"), SplitConfig(seed=0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no entries"):
            split_train_val([], SplitConfig(seed=0))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SplitConfig(seed=0, train_fraction=1.0)


class TestManifestIO:
    def test_round_trip(self):
        entries = entries_of("malignant", 3) + entries_of("benign", 2)
        assert parse_manifest(format_manifest(entries)) == sorted(
            entries, key=lambda e: e.path
        )

    def test_header_first(self):
        text = format_manifest(entries_of("benign", 1))
        assert text.splitlines()[0] == "path,label,split"

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_manifest("nope,nope,nope\n")

    def test_rejects_duplicate_path(self):
        text = "path,label,split\nx.ppm,benign,train\nx.ppm,benign,val\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_manifest(text)

    def test_bare_cr_in_a_field_names_the_line(self):
        with pytest.raises(ValueError, match="line 2: new-line character"):
            parse_manifest(BARE_CR_MANIFEST)

    def test_error_after_a_multiline_record_names_its_physical_line(self):
        # the quoted path of the first record spans lines 2 and 3
        text = 'path,label,split\n"a\nb.ppm",benign,train\nc.ppm,what,train\n'
        with pytest.raises(ValueError, match="line 4: unknown label 'what'"):
            parse_manifest(text)

    @given(st.one_of(
        UTF8_TEXT, st.lists(MANIFEST_TOKENS).map("".join),
        st.lists(MANIFEST_TOKENS).map(lambda t: "path,label,split\n" + "".join(t)),
    ))
    @example(BARE_CR_MANIFEST)
    def test_arbitrary_text_raises_only_value_error(self, text):
        try:
            parse_manifest(text)
        except ValueError:
            pass

    @given(st.one_of(
        st.binary(),
        st.lists(MANIFEST_TOKENS).map(lambda t: ("path,label,split\n" + "".join(t)).encode()),
    ))
    @example(BOM + BARE_CR_MANIFEST.encode())
    @example(b"path,label,split\na.ppm,benign,tr\xffain\n")
    def test_arbitrary_bytes_raise_only_value_error(self, data):
        try:
            parse_manifest(data)
        except ValueError:
            pass

    @given(ENTRIES)
    @example(AWKWARD_ENTRIES)
    def test_formatted_utf8_parses_to_the_sorted_entries(self, entries):
        assert parse_manifest(format_manifest(entries).encode()) == sorted(entries, key=lambda e: e.path)

    def test_write_then_read_gives_the_sorted_entries(self, tmp_path):
        write_manifest(AWKWARD_ENTRIES, tmp_path / "m.csv")
        assert read_manifest(tmp_path / "m.csv") == sorted(AWKWARD_ENTRIES, key=lambda e: e.path)

    def test_quoted_line_breaks_read_back_verbatim(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b'path,label,split\n"a\r\nb.ppm",benign,train\n"c\rd.ppm",malignant,val\n')
        assert read_manifest(path) == [
            ManifestEntry("a\r\nb.ppm", "benign", "train"),
            ManifestEntry("c\rd.ppm", "malignant", "val"),
        ]

    def test_leading_bom_is_accepted(self, tmp_path):
        entries = entries_of("benign", 2)
        path = tmp_path / "m.csv"
        path.write_bytes(BOM + format_manifest(entries).encode())
        assert read_manifest(path) == entries


class TestRng:
    def test_stream_is_reproducible(self):
        a = Xoshiro256StarStar(123)
        b = Xoshiro256StarStar(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_below_range(self):
        rng = Xoshiro256StarStar(5)
        draws = [rng.below(10) for _ in range(1000)]
        assert set(draws) == set(range(10))

    def test_shuffle_is_fisher_yates_on_below(self):
        rng, want = Xoshiro256StarStar(9), list(range(30))
        for i in range(29, 0, -1):
            j = rng.below(i + 1)
            want[i], want[j] = want[j], want[i]
        items = list(range(30))
        Xoshiro256StarStar(9).shuffle(items)
        assert items == want
