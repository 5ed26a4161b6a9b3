from field_oracle import is_prime_by_trial_division

PRIMES_TO_61 = [p for p in range(5, 62) if is_prime_by_trial_division(p)]
PRIMES_TO_199 = [p for p in range(5, 200) if is_prime_by_trial_division(p)]
