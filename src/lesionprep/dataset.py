"""Dataset ingestion, deterministic stratified train/val splitting, and
manifest I/O.

Expected directory layout: root/{train,test}/{benign,malignant}/<image files>.
Scanning refuses, by name, any other directory at the top and any file
directly under train/ or test/; it ignores files at the top and hidden files
and directories at every depth.
Each file's path under the root must be `str.isprintable()` text (no control
characters, line breaks or undecodable bytes), or scanning refuses it by name.
Manifests are CSV lines `path,label,split` sorted by path, so reruns with the
same seed are byte-identical. `csv_records` reads manifests and prediction
logs alike: strict UTF-8 with an optional BOM, quoted newlines kept as written.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

LABELS = ("benign", "malignant")
SPLITS = ("train", "val", "test")
_TOP_DIRS = ("train", "test")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str

    def __post_init__(self):
        if self.label not in LABELS:
            raise ValueError(f"unknown label {self.label!r}")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split {self.split!r}")


@dataclass(frozen=True)
class SplitConfig:
    seed: int
    train_fraction: float = 0.75

    def __post_init__(self):
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")


def _splitmix64(state: int):
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


class Xoshiro256StarStar:
    """xoshiro256** seeded from a SplitMix64 stream of the 64-bit seed.

    Fixed, documented generator so split assignments are reproducible across
    platforms and library versions.
    """

    def __init__(self, seed: int):
        sm = _splitmix64(seed & _MASK64)
        self._s = [next(sm) for _ in range(4)]

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & _MASK64
        s2 ^= s0
        s3 ^= s1
        self._s = [s0 ^ s3, s1 ^ s2, s2 ^ ((s1 << 17) & _MASK64), ((s3 << 45) | (s3 >> 19)) & _MASK64]
        return (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            r = self.next_u64()
            if r <= limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: len(items) - 1 draws of ``below``."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def scan_dataset(root: str | Path) -> list[ManifestEntry]:
    """One entry per image file under root/{train,test}/{benign,malignant},
    in lexicographic path order. Paths are stored relative to root and must
    be printable text, so that every manifest row reads back as written.
    Any other top-level directory, and any file directly under train/ or
    test/, is refused by name rather than left out; files at the top, and
    hidden files and directories at any depth, are ignored."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")

    def refuse(path: Path, what: str):
        return ValueError(f"{path.relative_to(root).as_posix()!r} under {root} is {what}; "
                          f"images go in {{{','.join(_TOP_DIRS)}}}/{{{','.join(LABELS)}}}/")

    entries = []
    for top in sorted(p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")):
        if top.name not in _TOP_DIRS:
            raise refuse(top, "not a split directory")
        for class_dir in sorted(p for p in top.iterdir() if not p.name.startswith(".")):
            if not class_dir.is_dir():
                raise refuse(class_dir, "outside a class directory")
            if class_dir.name not in LABELS:
                raise ValueError(f"unknown class directory {class_dir}")
            for f in sorted(class_dir.rglob("*")):
                if f.is_file() and not any(part.startswith(".") for part in f.relative_to(class_dir).parts):
                    path = f.relative_to(root).as_posix()
                    if not path.isprintable():
                        raise ValueError(f"file name {path!r} under {root} is not printable text")
                    entries.append(ManifestEntry(path, class_dir.name, top.name))
    if not entries:
        raise ValueError(f"no images found under {root}")
    entries.sort(key=lambda e: e.path)
    return entries


def split_train_val(entries: Sequence[ManifestEntry], config: SplitConfig) -> list[ManifestEntry]:
    """Reassign split=train entries to train/val, stratified per class.

    Per class the entries are shuffled (xoshiro256**, Fisher-Yates) and the
    first floor(n * train_fraction) stay train; the remainder become val.
    Deterministic for a given seed; output is sorted by path.
    """
    if not entries:
        raise ValueError("no entries to split")
    for e in entries:
        if e.split != "train":
            raise ValueError(f"entry {e.path!r} has split {e.split!r}, expected train")
    rng = Xoshiro256StarStar(config.seed)
    out = []
    for label in LABELS:
        group = sorted((e for e in entries if e.label == label), key=lambda e: e.path)
        rng.shuffle(group)  # an empty group draws nothing
        n_train = int(len(group) * config.train_fraction)
        out += group[:n_train] + [replace(e, split="val") for e in group[n_train:]]
    out.sort(key=lambda e: e.path)
    return out


MANIFEST_HEADER = ["path", "label", "split"]


def csv_text(rows: Iterable[Sequence]) -> str:
    """``rows`` as CSV text with LF line ends, each field quoted where CSV
    needs it, so that `csv_records` reads every field back as written."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def format_manifest(entries: Iterable[ManifestEntry]) -> str:
    rows = [[e.path, e.label, e.split] for e in sorted(entries, key=lambda x: x.path)]
    return csv_text([MANIFEST_HEADER] + rows)


def csv_records(data: bytes | str, header: list[str], strip: bool = False) -> list[tuple[int, list[str]]]:
    """The `(line, fields)` records after the `header` row of CSV `data`.

    Bytes are strict UTF-8 after an optional BOM; quoted CR and LF are kept.
    `strip` trims every field, the header's too. Blank rows are skipped. Each
    fault is a ValueError naming the physical line where its record ends."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValueError(f"not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(data))
    try:
        # a quoted field may hold newlines, so a record ends on line_num
        rows = [(reader.line_num, [f.strip() for f in row] if strip else row) for row in reader]
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    found = rows[0][1] if rows else None
    if found != header:
        raise ValueError(f"bad header {found!r}, expected {header}")
    records = [(lineno, row) for lineno, row in rows[1:] if row]
    for lineno, row in records:
        if len(row) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
    return records


def parse_manifest(data: bytes | str) -> list[ManifestEntry]:
    entries = []
    seen = set()
    for lineno, (path, label, split) in csv_records(data, MANIFEST_HEADER):
        if path in seen:
            raise ValueError(f"line {lineno}: duplicate path {path!r}")
        seen.add(path)
        try:
            entries.append(ManifestEntry(path, label, split))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return entries


def write_manifest(entries: Iterable[ManifestEntry], path: str | Path) -> None:
    Path(path).write_text(format_manifest(entries), encoding="utf-8")


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    return parse_manifest(Path(path).read_bytes())
