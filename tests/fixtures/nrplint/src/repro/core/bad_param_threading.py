"""NRP011 fixture: the answer_batch fallthrough bug from PR 8, replayed."""


class MiniEngine:
    def answer(self, s, t, alpha, deadline_s=None):
        return (s, t, alpha, deadline_s)

    def answer_batch(self, queries, deadline_s=None):
        out = []
        for s, t, alpha in queries:
            out.append(self.answer(s, t, alpha))  # BAD: drops deadline_s
        return out

    def answer_batch_ok(self, queries, deadline_s=None):
        return [
            self.answer(s, t, alpha, deadline_s=deadline_s)
            for s, t, alpha in queries
        ]


def execute(plan, budget=None, deadline_s=None):
    return (plan, budget, deadline_s)


def run_plan(plan, deadline_s=None):
    return execute(plan)  # BAD: drops deadline_s


def run_plan_short(plan, deadline_s=None):
    return execute(plan, 1.0)  # BAD: the positional slot stops short of it


def run_plan_ok(plan, deadline_s=None):
    return execute(plan, deadline_s=deadline_s)  # OK


def run_plan_positional_ok(plan, deadline_s=None):
    return execute(plan, None, deadline_s)  # OK: covered positionally
