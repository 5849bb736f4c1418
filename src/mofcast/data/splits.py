"""Inter-city cross-validation splits.

Each city is assigned to exactly one of three folds. Evaluating fold k holds
out every track recorded in a fold-k city; held-out tracks are divided into
validation and test halves at clip level by a deterministic hash of the
video id, so all windows of one clip land on the same side. Cities never
straddle the train/holdout boundary.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..core import Track
from ..errors import SplitError
from .io import read_json, write_json

N_FOLDS = 3


@dataclass(frozen=True)
class SplitConfig:
    """Maps each city to a fold index in {0, 1, 2}.

    ``val_fraction`` is the share of the held-out fold used for validation;
    the rest is the test set.
    """

    folds: dict[str, int]
    val_fraction: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.val_fraction < 1.0:
            raise SplitError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        for city, fold in self.folds.items():
            if fold not in range(N_FOLDS):
                raise SplitError(f"city {city!r} assigned to fold {fold}, must be in 0..{N_FOLDS - 1}")

    @classmethod
    def from_file(cls, path: str | Path) -> "SplitConfig":
        """Load from a JSON file: {"folds": {"0": [cities...], ...}, "val_fraction": 0.5}.

        A malformed file raises :class:`SplitError` naming it.
        """
        raw = read_json(path, SplitError)
        if not isinstance(raw, dict) or not isinstance(raw.get("folds"), dict):
            raise SplitError(f'{path}: expected a JSON object whose "folds" maps each fold to a list of cities')
        folds: dict[str, int] = {}
        try:
            for fold_s, cities in raw["folds"].items():
                fold = int(fold_s)
                if not isinstance(cities, list) or not all(isinstance(city, str) for city in cities):
                    raise SplitError(f"fold {fold_s} must be a list of city names, got {json.dumps(cities)}")
                for city in cities:
                    if city in folds:
                        raise SplitError(f"city {city!r} appears in folds {folds[city]} and {fold}")
                    folds[city] = fold
            return cls(folds=folds, val_fraction=float(raw.get("val_fraction", cls.val_fraction)))
        except (TypeError, ValueError, SplitError) as exc:  # int() or float() of a bad value; a bad fold
            raise SplitError(f"{path}: {exc}") from None

    def to_file(self, path: str | Path) -> None:
        by_fold: dict[str, list[str]] = {str(i): [] for i in range(N_FOLDS)}
        for city in sorted(self.folds):
            by_fold[str(self.folds[city])].append(city)
        write_json(path, {"folds": by_fold, "val_fraction": self.val_fraction})


@dataclass(frozen=True)
class SplitResult:
    train: tuple[Track, ...]
    val: tuple[Track, ...]
    test: tuple[Track, ...]

    @property
    def train_cities(self) -> set[str]:
        return {_city_of(t) for t in self.train}

    @property
    def holdout_cities(self) -> set[str]:
        return {_city_of(t) for t in (*self.val, *self.test)}


def _city_of(track: Track) -> str:
    city = (track.metadata or {}).get("city")
    if not city:
        raise SplitError(f"track {track.key} has no city metadata")
    return city


def _hash_fraction(video_id: str) -> float:
    digest = hashlib.sha256(video_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def make_splits(tracks: Sequence[Track], config: SplitConfig, fold: int) -> SplitResult:
    """Partition tracks into train / val / test for one fold.

    Tracks from held-out-fold cities go to val or test (by video-id hash
    against ``val_fraction``); everything else trains. Unknown cities are an
    error; an empty train set is valid but warned about.
    """
    if fold not in range(N_FOLDS):
        raise SplitError(f"fold must be in 0..{N_FOLDS - 1}, got {fold}")
    train, val, test = [], [], []
    for track in tracks:
        city = _city_of(track)
        if city not in config.folds:
            raise SplitError(f"city {city!r} not present in split config")
        if config.folds[city] != fold:
            train.append(track)
        elif _hash_fraction(track.video_id) < config.val_fraction:
            val.append(track)
        else:
            test.append(track)
    if tracks and not train:
        warnings.warn(f"fold {fold} leaves the train set empty", UserWarning, stacklevel=2)
    return SplitResult(train=tuple(train), val=tuple(val), test=tuple(test))
