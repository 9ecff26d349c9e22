class SimFault(Exception):
    """A model-level fault (double-write, bad release, memory fault, ...).

    Raised inside the simulation kernel and surfaced as a FAULT outcome with
    this message as the diagnostic.
    """


class ConfigError(ValueError):
    """A machine config value out of range.

    The message names the config field in words; `field`, `rule` and `value`
    let a front end name the flag that set the field instead.
    """

    def __init__(self, field: str, rule: str, value, name: str | None = None):
        super().__init__(f"{name or field.replace('_', ' ')} {rule}, "
                         f"got {value!r}")
        self.field, self.rule, self.value = field, rule, value
