"""Independent reference implementations used to validate the package.

Everything here is written as straight-line loops over Python scalars (or
trivially indexed numpy arrays), sharing no code with the package under
test. Slow on purpose; correctness is the only goal.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations


# ------------------------------------------------------------------ corpus

def bow_reference(tokens, vocabulary):
    """Per-term counts of the in-vocabulary tokens, as a list of ints."""
    counts = [0] * len(vocabulary)
    for token in tokens:
        i = vocabulary.index.get(token)
        if i is not None:
            counts[i] += 1
    return counts


# ---------------------------------------------------------------- rankings

def rbo_reference(a, b, p):
    """Extrapolated rank-biased overlap via explicit prefix intersections."""
    d = len(a)
    total = 0.0
    for i in range(1, d + 1):
        x_i = len(set(a[:i]) & set(b[:i]))
        total += x_i / i * p ** i
    x_d = len(set(a) & set(b))
    return x_d / d * p ** d + (1 - p) / p * total


def topic_diversity_reference(topics, n):
    slots = []
    for t in topics:
        slots.extend(t[:n])
    return len(set(slots)) / len(slots)


# -------------------------------------------------------------- coherence

def windows_reference(tokens, window):
    if len(tokens) <= window:
        return [list(tokens)]
    return [list(tokens[i:i + window]) for i in range(len(tokens) - window + 1)]


def window_counts_reference(docs, window, terms):
    """Boolean presence counts by full enumeration: ({term: windows holding
    it}, {(a, b) with a < b: windows holding both}, total windows). Terms
    and pairs that occur in no window are left out."""
    word_counts, pair_counts, total = {}, {}, 0
    for doc in docs:
        for win in windows_reference(doc, window):
            total += 1
            present = sorted(t for t in set(terms) if t in win)
            for t in present:
                word_counts[t] = word_counts.get(t, 0) + 1
            for a, b in combinations(present, 2):
                pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
    return word_counts, pair_counts, total


def npmi_reference(topics, docs, window, eps=1e-12):
    """Boolean sliding-window NPMI, counted by full enumeration."""
    all_windows = []
    for doc in docs:
        all_windows.extend(windows_reference(doc, window))
    total = len(all_windows)

    def p_word(w):
        return sum(1 for win in all_windows if w in win) / total

    def p_pair(w1, w2):
        return sum(1 for win in all_windows if w1 in win and w2 in win) / total

    topic_scores = []
    for topic in topics:
        pair_vals = []
        for w1, w2 in combinations(topic, 2):
            p1, p2 = p_word(w1), p_word(w2)
            if p1 == 0 or p2 == 0:
                continue
            p12 = p_pair(w1, w2)
            if p12 >= 1.0:
                pair_vals.append(1.0)
                continue
            if p12 == 0.0:
                p12 = eps
            pair_vals.append(math.log(p12 / (p1 * p2)) / -math.log(p12))
        topic_scores.append(sum(pair_vals) / len(pair_vals) if pair_vals else 0.0)
    return sum(topic_scores) / len(topic_scores)


def cosine_reference(a, b):
    dot = sum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(sum(float(x) ** 2 for x in a))
    nb = math.sqrt(sum(float(y) ** 2 for y in b))
    return dot / (na * nb)


def iec_reference(topic_image_sets):
    topic_means = []
    for images in topic_image_sets:
        vals = [cosine_reference(images[i], images[j])
                for i, j in combinations(range(len(images)), 2)]
        topic_means.append(sum(vals) / len(vals))
    return sum(topic_means) / len(topic_means)


def ieps_reference(topic_image_sets):
    k = len(topic_image_sets)
    pair_means = []
    for a, b in combinations(range(k), 2):
        sa, sb = topic_image_sets[a], topic_image_sets[b]
        vals = [cosine_reference(x, y) for x in sa for y in sb]
        pair_means.append(sum(vals) / len(vals))
    return sum(pair_means) / len(pair_means)


def we_coherence_reference(topics, vectors):
    topic_means = []
    for topic in topics:
        present = [vectors[w] for w in topic if w in vectors]
        if len(present) < 2:
            continue
        vals = [cosine_reference(a, b) for a, b in combinations(present, 2)]
        topic_means.append(sum(vals) / len(vals))
    return sum(topic_means) / len(topic_means)


# ------------------------------------------------------------- assignment

def hungarian_brute_force(matrix, maximize=False):
    """Optimal assignment by trying every permutation. Usable up to n ~ 8."""
    n = len(matrix)
    best_total = None
    best_perm = None
    for perm in permutations(range(n)):
        total = sum(matrix[i][perm[i]] for i in range(n))
        better = (best_total is None
                  or (total > best_total if maximize else total < best_total))
        if better:
            best_total = total
            best_perm = perm
    return list(best_perm), best_total


# ------------------------------------------------------------- optimizers

def adam_scalar_reference(grad_fn, p0, steps, lr=2e-3, beta1=0.99, beta2=0.999,
                          epsilon=1e-8):
    """Textbook Adam recurrence on a single scalar parameter."""
    p, m, v = p0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(p)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + epsilon)
    return p


# -------------------------------------------------------- neural objectives

def _softplus_scalar(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _softmax_list(values):
    mx = max(values)
    exps = [math.exp(v - mx) for v in values]
    s = sum(exps)
    return [e / s for e in exps]


def _encode_scalar(params, prefix, x, num_topics):
    """Scalar-loop encoder: hidden softplus layer, then mu and logvar heads."""
    w1 = params[prefix + ".W_hidden"]
    b1 = params[prefix + ".b_hidden"]
    hidden = []
    for h in range(w1.shape[0]):
        acc = float(b1[h])
        for i in range(w1.shape[1]):
            acc += float(w1[h, i]) * float(x[i])
        hidden.append(_softplus_scalar(acc))
    mu, logvar = [], []
    for name, out in (("mu", mu), ("logvar", logvar)):
        w = params[f"{prefix}.W_{name}"]
        b = params[f"{prefix}.b_{name}"]
        for k in range(num_topics):
            acc = float(b[k])
            for h in range(w.shape[1]):
                acc += float(w[k, h]) * hidden[h]
            out.append(acc)
    return mu, logvar


def _theta_scalar(mu, logvar, eps_row):
    z = [m + math.exp(0.5 * lv) * float(e) for m, lv, e in zip(mu, logvar, eps_row)]
    return _softmax_list(z)


def _recon_scalar(theta, beta, bow):
    v = beta.shape[1]
    logits = []
    for j in range(v):
        acc = 0.0
        for k in range(len(theta)):
            acc += theta[k] * float(beta[k, j])
        logits.append(acc)
    mx = max(logits)
    lse = mx + math.log(sum(math.exp(l - mx) for l in logits))
    return -sum(float(bow[j]) * (logits[j] - lse) for j in range(v))


def _kl_scalar(mu, logvar, prior_mean, prior_var):
    total = 0.0
    for k in range(len(mu)):
        total += 0.5 * ((math.exp(logvar[k]) + (mu[k] - prior_mean[k]) ** 2) / prior_var[k]
                        - 1.0 + math.log(prior_var[k]) - logvar[k])
    return total


def prior_variance_reference(num_topics, alpha):
    return (1.0 / alpha) * (1.0 - 2.0 / num_topics) \
        + (1.0 / num_topics ** 2) * num_topics * (1.0 / alpha)


def mzs_loss_reference(x, bow, image_target, params, num_topics, prior_alpha,
                       image_weight, eps_row):
    """One-document loss of the concatenated-embedding multimodal kind."""
    mu, logvar = _encode_scalar(params, "enc", x, num_topics)
    theta = _theta_scalar(mu, logvar, eps_row)
    recon = _recon_scalar(theta, params["beta"], bow)
    pv = prior_variance_reference(num_topics, prior_alpha)
    kl = _kl_scalar(mu, logvar, [0.0] * num_topics, [pv] * num_topics)
    gamma = params["gamma"]
    r = []
    for j in range(gamma.shape[1]):
        acc = 0.0
        for k in range(num_topics):
            acc += theta[k] * float(gamma[k, j])
        r.append(acc)
    dot = sum(float(u) * rr for u, rr in zip(image_target, r))
    nu = math.sqrt(sum(float(u) ** 2 for u in image_target))
    nr = math.sqrt(sum(rr ** 2 for rr in r))
    cos = dot / (nu * nr + 1e-12)
    image = image_weight * (1.0 - cos)
    return recon + kl + image, recon, kl, image


def infonce_reference(theta_text, theta_image, temperature, weight):
    """Direct-loop InfoNCE: the two ordered cross-modality pairings of each
    anchor document are positives; the denominator sums every pairing of the
    anchor's vectors against every document, own pairings included."""
    n = len(theta_text)
    mats = [theta_text, theta_image]
    total = 0.0
    for i in range(n):
        denom = 0.0
        for j in range(n):
            for c in range(2):
                for d in range(2):
                    dot = sum(float(mats[c][i][t]) * float(mats[d][j][t])
                              for t in range(len(theta_text[i])))
                    denom += math.exp(dot / temperature)
        for a in range(2):
            for b in range(2):
                if a == b:
                    continue
                dot = sum(float(mats[a][i][t]) * float(mats[b][i][t])
                          for t in range(len(theta_text[i])))
                total += -math.log(math.exp(dot / temperature) / denom)
    return weight * total / n


def contrast_loss_reference(x_text, x_image, bows, params, num_topics,
                            prior_alpha, temperature, weight, eps_text, eps_image):
    """Batch loss of the two-encoder contrastive kind, summed over docs."""
    n = len(bows)
    pv = prior_variance_reference(num_topics, prior_alpha)
    thetas_t, thetas_m = [], []
    recon_kl = []
    for i in range(n):
        mu_t, lv_t = _encode_scalar(params, "enc_text", x_text[i], num_topics)
        mu_m, lv_m = _encode_scalar(params, "enc_image", x_image[i], num_topics)
        th_t = _theta_scalar(mu_t, lv_t, eps_text[i])
        th_m = _theta_scalar(mu_m, lv_m, eps_image[i])
        thetas_t.append(th_t)
        thetas_m.append(th_m)
        recon = _recon_scalar(th_t, params["beta"], bows[i])
        kl_t = _kl_scalar(mu_t, lv_t, [0.0] * num_topics, [pv] * num_topics)
        kl_m = _kl_scalar(mu_m, lv_m, [0.0] * num_topics, [pv] * num_topics)
        recon_kl.append(recon + kl_t + kl_m)
    nce_sum = infonce_reference(thetas_t, thetas_m, temperature, weight) * n
    return sum(recon_kl) + nce_sum
