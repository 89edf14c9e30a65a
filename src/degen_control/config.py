"""Line-based ``key = value`` experiment configuration files.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored; a key given twice is an error. Values stay strings until a typed
getter converts them, and every getter reads through ``Config._get``, so
every type error can name the offending key.
"""

from __future__ import annotations

from .errors import ConfigError

_REQUIRED = object()


class Config:
    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def _get(self, key: str, default, parse, what: str):
        """``parse`` of the value of ``key``, or ``default`` as given when the
        key is absent; ConfigError when a required key is absent or the value
        does not parse (``what`` names the expected form)."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise ConfigError(f"missing required key '{key}'")
            return default
        val = self.entries[key]
        try:
            return parse(val)
        except (TypeError, ValueError):
            raise ConfigError(f"key '{key}' must be {what}, got {val!r}") from None

    def get_str(self, key: str, default=_REQUIRED, choices=None) -> str:
        def pick(val):
            if choices is None or val in choices:
                return val
            raise ValueError(val)

        return self._get(key, default, pick, f"one of {sorted(choices or ())}")

    def get_float(self, key: str, default=_REQUIRED) -> float:
        return self._get(key, default, float, "a real number")

    def get_int(self, key: str, default=_REQUIRED) -> int:
        return self._get(key, default, int, "an integer")

    def get_float_list(self, key: str, default=_REQUIRED) -> list:
        return self._get(key, default,
                         lambda v: [float(tok) for tok in str(v).split(",") if tok.strip()],
                         "comma-separated reals")

    def get_pair(self, key: str, default=_REQUIRED) -> tuple:
        vals = self.get_float_list(key, default)
        if len(vals) != 2:
            raise ConfigError(f"key '{key}' must hold exactly two reals")
        return tuple(vals)


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
    return Config(entries)
