"""Unit tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            errors.ParameterError,
            errors.StateSpaceError,
            errors.SolverError,
            errors.ConvergenceError,
            errors.ChainStructureError,
            errors.UnknownBlockError,
            errors.SimulationError,
            errors.ExperimentError,
            errors.ExecutionError,
            errors.WorkerCrashError,
            errors.RunTimeoutError,
            errors.RetryExhaustedError,
            errors.StoreLeaseError,
        ],
    )
    def test_everything_derives_from_repro_error(self, exception_type):
        assert issubclass(exception_type, errors.ReproError)

    def test_parameter_error_is_value_error(self):
        assert issubclass(errors.ParameterError, ValueError)

    def test_unknown_block_error_is_key_error(self):
        assert issubclass(errors.UnknownBlockError, KeyError)

    def test_convergence_error_is_solver_error(self):
        assert issubclass(errors.ConvergenceError, errors.SolverError)

    def test_catching_base_class_catches_subclasses(self):
        with pytest.raises(errors.ReproError):
            raise errors.SimulationError("boom")

    @pytest.mark.parametrize(
        "exception_type",
        [
            errors.WorkerCrashError,
            errors.RunTimeoutError,
            errors.RetryExhaustedError,
            errors.StoreLeaseError,
        ],
    )
    def test_execution_subclasses_derive_from_execution_error(self, exception_type):
        assert issubclass(exception_type, errors.ExecutionError)

    def test_execution_error_is_runtime_error(self):
        assert issubclass(errors.ExecutionError, RuntimeError)


class TestExecutionErrorMessages:
    """The dispatcher/store failure messages callers grep their logs for."""

    def test_task_failure_crash_message_names_pid_exit_code_and_task(self):
        from repro.utils.resilient import TaskFailure

        failure = TaskFailure(
            task_id=7,
            kind="crash",
            message="worker (pid 1234) died with exit code -9 while running task 7",
            attempts=3,
        )
        error = failure.error()
        assert isinstance(error, errors.WorkerCrashError)
        assert "pid 1234" in str(error)
        assert "exit code -9" in str(error)
        assert "task 7" in str(error)

    def test_task_failure_timeout_message_names_budget(self):
        from repro.utils.resilient import TaskFailure

        failure = TaskFailure(
            task_id=3,
            kind="timeout",
            message="task 3 exceeded its 2.5s wall-clock timeout and its worker was killed",
            attempts=1,
        )
        error = failure.error()
        assert isinstance(error, errors.RunTimeoutError)
        assert "2.5s" in str(error)
        assert "wall-clock timeout" in str(error)

    def test_task_failure_generic_kind_maps_to_execution_error(self):
        from repro.utils.resilient import TaskFailure

        failure = TaskFailure(
            task_id=0, kind="error", message="ValueError: boom", attempts=2
        )
        error = failure.error()
        assert type(error) is errors.ExecutionError
        assert "ValueError: boom" in str(error)

    def test_exhausted_error_counts_attempts_and_carries_last_failure(self):
        from repro.utils.resilient import TaskFailure

        failure = TaskFailure(
            task_id=11, kind="error", message="ValueError: boom", attempts=3
        )
        exhausted = failure.exhausted_error()
        assert isinstance(exhausted, errors.RetryExhaustedError)
        text = str(exhausted)
        assert "task 11" in text
        assert "3 attempt(s)" in text
        assert "ValueError: boom" in text
