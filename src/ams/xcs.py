"""Accuracy-based learning classifier system (XCS), single-step variant.

Ternary-condition rules over CONDITION_LENGTH-bit inputs map each input to
one of a small set of actions.  Classifiers track prediction, absolute
prediction error and relative-accuracy fitness; a niche genetic algorithm
runs on action sets with subsumption, and deletion keeps total numerosity
under a population cap.

An input is an int in [0, 2**CONDITION_LENGTH).  A condition is two ints:
`care`, with a 1 at every specified position, and `value`, the specified
bits (0 wherever `care` is 0); a 0 in `care` is the wildcard "#" of the
ternary alphabet.  Input x matches when `x & care == value`.  Position i,
counted from the first, is bit CONDITION_LENGTH - 1 - i: covering and
mutation visit the positions first to last, and crossover cuts between them.

Unlike Butz & Wilson (2001): (a) `update` moves the error before the
prediction, so the error reads the prediction from before the update;
(b) there is no MAM averaging, the rate is beta from the first update on;
(c) only the GA subsumes (a parent absorbs its child), there is no
action-set subsumption; (d) mutation turns "#" into a random bit, not the
input's bit; (e) parents are chosen by tournament, not roulette wheel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CONDITION_LENGTH = 18
N_ACTIONS = 8                   # covering fills every action (theta_mna)
TOURNAMENT_FRACTION = 0.4
FITNESS_PENALTY_FRACTION = 0.1  # low-fitness deletion penalty cutoff


class XcsError(ValueError):
    pass


@dataclass
class XcsParams:
    population_cap: int = 400           # max total numerosity
    learning_rate: float = 0.2          # beta
    error_threshold: float = 0.012      # epsilon_0, 1% of EngineConfig.reward_max
    accuracy_power: float = 5.0         # nu
    accuracy_scale: float = 0.1         # alpha
    ga_threshold: float = 25.0          # theta_GA
    crossover_prob: float = 0.8         # chi
    mutation_prob: float = 0.04         # mu, per condition position
    wildcard_prob: float = 0.33         # P# during covering
    deletion_threshold: int = 20        # theta_del
    init_prediction: float = 0.01
    init_error: float = 0.01
    init_fitness: float = 0.01
    subsumption_experience: int = 20    # theta_sub

    def __post_init__(self):
        if self.population_cap < N_ACTIONS:
            raise XcsError(f"population_cap must be at least {N_ACTIONS}, "
                           "one classifier per action")
        if self.error_threshold <= 0:
            raise XcsError("error_threshold must be positive")
        if self.accuracy_power < 0:
            raise XcsError("accuracy_power must be >= 0")
        for name in ("crossover_prob", "mutation_prob", "wildcard_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise XcsError(f"{name} outside [0, 1]")
        for name in ("learning_rate", "accuracy_scale"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise XcsError(f"{name} outside (0, 1]")
        for name in ("ga_threshold", "deletion_threshold", "subsumption_experience",
                     "init_prediction", "init_error", "init_fitness"):
            if not getattr(self, name) >= 0:
                raise XcsError(f"{name} must be >= 0")


@dataclass
class Classifier:
    care: int   # 1 at each specified position
    value: int  # the specified bits
    action: int
    prediction: float
    error: float
    fitness: float
    experience: int = 0
    numerosity: int = 1
    action_set_size: float = 1.0
    ga_timestamp: int = 0

    def is_more_general(self, other: "Classifier") -> bool:
        """This matches every input `other` matches, and has more
        wildcards."""
        care = self.care
        return (care & ~other.care == 0 and other.value & care == self.value
                and care != other.care)


class XcsPopulation:
    """One rule population; owned by a single melody agent.  The params
    are only read, so populations may share one XcsParams."""

    def __init__(self, params: XcsParams | None = None,
                 rng: random.Random | None = None):
        self.params = params or XcsParams()
        self.rng = rng or random.Random(0)
        self.classifiers: list[Classifier] = []
        self.time = 0

    # -- bookkeeping --------------------------------------------------------

    @property
    def total_numerosity(self) -> int:
        return sum(cl.numerosity for cl in self.classifiers)

    # -- match and covering -------------------------------------------------

    def match_set(self, x: int) -> list[Classifier]:
        """All classifiers matching input x, covering missing actions until
        all N_ACTIONS are present."""
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < 1 << CONDITION_LENGTH:
            raise XcsError(f"input must be an int in [0, 2**{CONDITION_LENGTH}), got {x!r}")
        self.time += 1
        matches = [cl for cl in self.classifiers if x & cl.care == cl.value]
        while len({cl.action for cl in matches}) < N_ACTIONS:
            covered = {cl.action for cl in matches}
            missing = [a for a in range(N_ACTIONS) if a not in covered]
            action = missing[0]
            care = 0
            for _ in range(CONDITION_LENGTH):
                care = care << 1 | (self.rng.random() >= self.params.wildcard_prob)
            cl = Classifier(
                care=care,
                value=x & care,
                action=action,
                prediction=self.params.init_prediction,
                error=self.params.init_error,
                fitness=self.params.init_fitness,
                ga_timestamp=self.time,
            )
            self._insert(cl)
            self._enforce_cap()
            matches = [cl for cl in self.classifiers if x & cl.care == cl.value]
        return matches

    # -- action selection ---------------------------------------------------

    def system_predictions(self, match_set: list[Classifier]) -> dict[int, float]:
        """Fitness-weighted mean prediction per action."""
        sums: dict[int, float] = {}
        weights: dict[int, float] = {}
        for cl in match_set:
            w = cl.fitness * cl.numerosity
            sums[cl.action] = sums.get(cl.action, 0.0) + cl.prediction * w
            weights[cl.action] = weights.get(cl.action, 0.0) + w
        return {a: sums[a] / weights[a] if weights[a] > 0 else 0.0 for a in sums}

    def select_action(self, match_set: list[Classifier],
                      explore_prob: float = 0.0) -> tuple[int, float]:
        """Pick an action and return it with its system prediction.

        With probability explore_prob a uniform random action, otherwise
        the argmax system prediction, ties to the lowest action id.  The
        RNG is drawn only when explore_prob > 0.
        """
        if not match_set:
            raise XcsError("empty match set")
        predictions = self.system_predictions(match_set)
        if explore_prob > 0 and self.rng.random() < explore_prob:
            action = self.rng.choice(sorted(predictions))
        else:
            action = min(predictions, key=lambda a: (-predictions[a], a))
        return action, predictions[action]

    @staticmethod
    def action_set(match_set: list[Classifier], action: int) -> list[Classifier]:
        return [cl for cl in match_set if cl.action == action]

    # -- reinforcement ------------------------------------------------------

    def update(self, action_set: list[Classifier], reward: float) -> None:
        """Single-step Widrow-Hoff updates plus fitness sharing, then the
        niche GA when the set is stale enough."""
        if not action_set:
            raise XcsError("empty action set")
        beta = self.params.learning_rate
        set_size = sum(cl.numerosity for cl in action_set)

        accuracies: list[float] = []
        for cl in action_set:
            cl.experience += 1
            cl.error += beta * (abs(reward - cl.prediction) - cl.error)
            cl.prediction += beta * (reward - cl.prediction)
            cl.action_set_size += beta * (set_size - cl.action_set_size)
            if cl.error < self.params.error_threshold:
                kappa = 1.0
            else:
                kappa = self.params.accuracy_scale * (
                    cl.error / self.params.error_threshold) ** -self.params.accuracy_power
            accuracies.append(kappa)

        total = sum(k * cl.numerosity for k, cl in zip(accuracies, action_set))
        if total > 0:
            for kappa, cl in zip(accuracies, action_set):
                cl.fitness += beta * (kappa * cl.numerosity / total - cl.fitness)

        self._maybe_run_ga(action_set)

    # -- genetic algorithm --------------------------------------------------

    def _maybe_run_ga(self, action_set: list[Classifier]) -> None:
        numerosity = sum(cl.numerosity for cl in action_set)
        mean_age = sum((self.time - cl.ga_timestamp) * cl.numerosity
                       for cl in action_set) / numerosity
        if mean_age <= self.params.ga_threshold:
            return
        for cl in action_set:
            cl.ga_timestamp = self.time

        parent_a = self._tournament(action_set)
        parent_b = self._tournament(action_set)
        care_a, value_a = parent_a.care, parent_a.value
        care_b, value_b = parent_b.care, parent_b.value

        if self.rng.random() < self.params.crossover_prob:
            x = self.rng.randrange(CONDITION_LENGTH + 1)
            y = self.rng.randrange(CONDITION_LENGTH + 1)
            lo, hi = min(x, y), max(x, y)
            # positions lo..hi-1 trade places
            cut = ((1 << (hi - lo)) - 1) << (CONDITION_LENGTH - hi)
            care_a, care_b = care_a & ~cut | care_b & cut, care_b & ~cut | care_a & cut
            value_a, value_b = value_a & ~cut | value_b & cut, value_b & ~cut | value_a & cut
            prediction = (parent_a.prediction + parent_b.prediction) / 2
            error = (parent_a.error + parent_b.error) / 2
            fitness = (parent_a.fitness + parent_b.fitness) / 2
            seeds = [(care_a, value_a, prediction, error, fitness),
                     (care_b, value_b, prediction, error, fitness)]
        else:
            seeds = [(care_a, value_a, parent_a.prediction, parent_a.error, parent_a.fitness),
                     (care_b, value_b, parent_b.prediction, parent_b.error, parent_b.fitness)]

        for care, value, prediction, error, fitness in seeds:
            for shift in reversed(range(CONDITION_LENGTH)):
                if self.rng.random() < self.params.mutation_prob:
                    # a specified position becomes a wildcard, a wildcard a random bit
                    bit = 1 << shift
                    if care & bit:
                        value &= ~bit
                    else:
                        value |= self.rng.choice((0, 1)) << shift
                    care ^= bit
            child = Classifier(
                care=care,
                value=value,
                action=parent_a.action,
                prediction=prediction,
                error=error,
                fitness=fitness * 0.1,
                ga_timestamp=self.time,
            )
            self._insert_with_subsumption(child, parent_a, parent_b)
        self._enforce_cap()

    def _tournament(self, action_set: list[Classifier]) -> Classifier:
        size = max(1, round(TOURNAMENT_FRACTION * len(action_set)))
        pool = [action_set[self.rng.randrange(len(action_set))] for _ in range(size)]
        best = pool[0]
        for cl in pool[1:]:
            if cl.fitness / cl.numerosity > best.fitness / best.numerosity:
                best = cl
        return best

    def _could_subsume(self, cl: Classifier) -> bool:
        return (cl.experience > self.params.subsumption_experience
                and cl.error < self.params.error_threshold)

    def _insert_with_subsumption(self, child: Classifier,
                                 *parents: Classifier) -> None:
        for parent in parents:
            if (parent.action == child.action and self._could_subsume(parent)
                    and (parent.is_more_general(child)
                         or parent.care == child.care and parent.value == child.value)):
                parent.numerosity += 1
                return
        self._insert(child)

    def _insert(self, child: Classifier) -> None:
        for cl in self.classifiers:
            if (cl.care == child.care and cl.value == child.value
                    and cl.action == child.action):
                cl.numerosity += child.numerosity
                return
        self.classifiers.append(child)

    def _enforce_cap(self) -> None:
        while self.total_numerosity > self.params.population_cap:
            self._delete_one()

    def _delete_one(self) -> None:
        total_num = self.total_numerosity
        mean_fitness = sum(cl.fitness for cl in self.classifiers) / total_num
        votes = []
        for cl in self.classifiers:
            vote = cl.action_set_size * cl.numerosity
            micro_fitness = cl.fitness / cl.numerosity
            if (cl.experience > self.params.deletion_threshold
                    and micro_fitness < FITNESS_PENALTY_FRACTION * mean_fitness
                    and micro_fitness > 0):
                vote *= mean_fitness / micro_fitness
            votes.append(vote)
        point = self.rng.random() * sum(votes)
        acc = 0.0
        for cl, vote in zip(self.classifiers, votes):
            acc += vote
            if acc >= point:
                cl.numerosity -= 1
                if cl.numerosity == 0:
                    self.classifiers.remove(cl)
                return
