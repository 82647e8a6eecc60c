import pytest

from wernerlike import fock


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (n_rows, n_cols) of every displacement-kernel call the test makes.

    Only ``fock.displacement_amplitudes_batch`` is patched: every other module
    reaches the kernel through fock's entry points, except ``wigner``, which
    this fixture does not count.
    """
    calls = []
    kernel = fock.displacement_amplitudes_batch

    def counted(*args):
        calls.append(args[1:])
        return kernel(*args)

    monkeypatch.setattr(fock, "displacement_amplitudes_batch", counted)
    return calls
