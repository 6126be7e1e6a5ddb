import pytest

from offlang import cli, gradcheck, nn


@pytest.fixture
def doubled_dense_input_grad(monkeypatch):
    dense_backward = nn.dense_backward
    monkeypatch.setattr(nn, "dense_backward", lambda dy, cache: 2.0 * dense_backward(dy, cache))


@pytest.fixture
def doubled_conv_bias_grad(monkeypatch):
    conv1d_backward = nn.conv1d_backward

    def wrong(dys, cache):
        dxs = conv1d_backward(dys, cache)
        cache[2].grad *= 2.0  # the bias
        return dxs

    monkeypatch.setattr(nn, "conv1d_backward", wrong)


def test_wrong_input_gradient_fails(doubled_dense_input_grad):
    assert gradcheck.check_dense(seed=0) > 1e-4


def test_wrong_parameter_gradient_fails(doubled_conv_bias_grad):
    assert gradcheck.check_conv1d(seed=0) > 1e-4


@pytest.mark.parametrize("loss_name, check", [("bce_loss", gradcheck.check_bce),
                                              ("categorical_ce_loss", gradcheck.check_categorical_ce)])
def test_wrong_loss_gradient_fails(monkeypatch, loss_name, check):
    loss_fn = getattr(nn, loss_name)

    def doubled(probs, target):
        loss, dprobs = loss_fn(probs, target)
        return loss, 2.0 * dprobs

    monkeypatch.setattr(nn, loss_name, doubled)
    assert check(0) > 1e-4


def test_cli_reports_each_failing_check(doubled_dense_input_grad, doubled_conv_bias_grad, capsys):
    assert cli.main(["gradcheck", "--seeds", "1"]) == 1
    status = {line.split()[1]: line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert status.pop("dense") == "FAIL" and status.pop("conv1d") == "FAIL"
    assert set(status.values()) == {"pass"} and len(status) == len(gradcheck.ALL_CHECKS) - 2


def test_zero_seeds_rejected(capsys):
    with pytest.raises(ValueError, match="n_seeds must be >= 1"):
        gradcheck.run_all(n_seeds=0, tolerance=1e-4)
    assert cli.main(["gradcheck", "--seeds", "0"]) == 1
    assert "error: n_seeds must be >= 1" in capsys.readouterr().err

