"""Errors of the remote file API, in a module of their own so the
reliability layer can raise them without importing the file API."""


class RemoteFileError(RuntimeError):
    pass


class RemoteMemoryUnavailable(RemoteFileError):
    """The backing lease/provider is gone; caller should fall back."""
