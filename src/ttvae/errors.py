"""Exception hierarchy shared across the toolkit.

Every error the library raises deliberately derives from :class:`TtvaeError`
so the CLI can map failures to exit codes: user-facing input problems carry
``exit_code`` 2, internal failures 1.
"""


class TtvaeError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class InvalidInputError(TtvaeError):
    """The caller supplied data that violates a documented precondition."""

    exit_code = 2


class MidiParseError(InvalidInputError):
    """Malformed standard MIDI file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(InvalidInputError):
    """Structurally valid input in a variant this toolkit does not handle."""


class InvalidSongError(InvalidInputError):
    """A song that cannot yield a melody/bass pair; skipped in batch runs."""


class NoKeyError(InvalidInputError):
    """Key detection received a score with no sounding notes."""


class InvalidRollError(InvalidInputError):
    """A piano-roll matrix violates the one-hot/onset layout invariants."""


class MissingFragmentError(InvalidInputError):
    """A fragment id referenced by a class label is absent from the dataset."""


class CheckpointError(InvalidInputError):
    """A checkpoint file failed integrity or compatibility checks."""


class NumericFailureError(TtvaeError):
    """Non-finite values appeared during model computation.

    ``context`` names the layer or stage that produced them; training aborts
    may attach the last known-good checkpoint path.
    """

    def __init__(self, message: str, context: str = "", checkpoint_path=None):
        super().__init__(message if not context else f"{context}: {message}")
        self.context = context
        self.checkpoint_path = checkpoint_path
