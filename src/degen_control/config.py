"""Line-based ``key = value`` experiment configuration files.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored; a key given twice is an error. Values stay strings until a typed getter converts them, so every
type error can name the offending key.
"""

from __future__ import annotations

from .errors import ConfigError

_REQUIRED = object()


class Config:
    def __init__(self, entries: dict, source: str = "<config>"):
        self.entries = dict(entries)
        self.source = source

    def _raw(self, key: str, default):
        if key in self.entries:
            return self.entries[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key '{key}'")
        return default

    def get_str(self, key: str, default=_REQUIRED, choices=None) -> str:
        val = self._raw(key, default)
        if val is default and default is not _REQUIRED:
            return default
        if choices is not None and val not in choices:
            raise ConfigError(
                f"key '{key}' must be one of {sorted(choices)}, got {val!r}")
        return val

    def get_float(self, key: str, default=_REQUIRED) -> float:
        val = self._raw(key, default)
        if val is default and default is not _REQUIRED:
            return default
        try:
            return float(val)
        except (TypeError, ValueError):
            raise ConfigError(f"key '{key}' must be a real number, got {val!r}") from None

    def get_int(self, key: str, default=_REQUIRED) -> int:
        val = self._raw(key, default)
        if val is default and default is not _REQUIRED:
            return default
        try:
            return int(val)
        except (TypeError, ValueError):
            raise ConfigError(f"key '{key}' must be an integer, got {val!r}") from None

    def get_float_list(self, key: str, default=_REQUIRED) -> list:
        val = self._raw(key, default)
        if val is default and default is not _REQUIRED:
            return default
        try:
            return [float(tok) for tok in str(val).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(
                f"key '{key}' must be comma-separated reals, got {val!r}") from None

    def get_pair(self, key: str, default=_REQUIRED) -> tuple:
        vals = self.get_float_list(key, default)
        if isinstance(vals, tuple):
            return vals
        if len(vals) != 2:
            raise ConfigError(f"key '{key}' must hold exactly two reals")
        return (vals[0], vals[1])


def parse_config(path) -> Config:
    entries, first_line = {}, {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
                key, _, value = stripped.partition("=")
                key = key.strip()
                if key in first_line:
                    raise ConfigError(f"{path}:{lineno}: duplicate key '{key}', "
                                      f"first given on line {first_line[key]}")
                first_line[key] = lineno
                entries[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return Config(entries, source=str(path))
