"""Immutable, validated, JSON-serializable records.

A record declares each field and its default once, as a ``NamedTuple``,
and puts :class:`Record` in front of it::

    class _PolicyFields(NamedTuple):
        deadline: float = 0.25
        seed: int = 0

    class Policy(Record, _PolicyFields):
        __slots__ = ()

        def _check(self):
            if self.deadline <= 0:
                raise ValueError("deadline must be > 0")

Every construction runs ``_check``.  It raises ``ValueError`` on a bad
field, and may instead return a corrected copy (``self._replace(...)``),
which is checked in turn.  ``_replace`` builds its copy the same way,
so no record skips validation.  ``to_json`` writes every field, with a
nested record (or any value with a ``to_json``) as its own JSON;
``from_json`` is the constructor.
"""


class Record:
    """Mixin for a ``NamedTuple`` of settings (see the module docstring)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        return record._check() or record

    def _check(self):
        """Raise ``ValueError`` on a bad field; may return a fixed copy."""

    def _replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new record."""
        return type(self)(**dict(self._asdict(), **changes))

    def to_json(self):
        return {name: value.to_json() if hasattr(value, "to_json") else value
                for name, value in zip(self._fields, self)}

    @classmethod
    def from_json(cls, data):
        return cls(**data)
