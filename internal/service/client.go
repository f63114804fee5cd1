package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Backoff computes jittered exponential retry delays. The jitter stream
// is deterministic in (Seed, attempt) — the same splitmix64 discipline
// the fault injector uses — so a load generator replays the same retry
// schedule from its seed, which is what makes chaos-run latency numbers
// comparable across runs.
//
// The zero value is usable: Base 5ms, Max 1s, Seed 1.
type Backoff struct {
	Base time.Duration // first-retry ceiling (default 5ms)
	Max  time.Duration // delay ceiling (default 1s)
	Seed uint64        // jitter stream key (default 1)
}

// Delay returns the sleep before retry number attempt (0-based). The
// window doubles per attempt up to Max, and the delay is drawn uniformly
// from [window/2, window): full-jitter's thundering-herd spread with a
// half-window floor so a retry never fires immediately. A server-sent
// Retry-After (retryAfter > 0) becomes the floor — the client honours
// the server's estimate but keeps its own jitter on top.
func (b Backoff) Delay(attempt int, retryAfter time.Duration) time.Duration {
	base, max, seed := b.Base, b.Max, b.Seed
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if seed == 0 {
		seed = 1
	}
	window := base << uint(attempt)
	if window > max || window <= 0 {
		window = max
	}
	half := window / 2
	d := half + time.Duration(splitmix(seed, uint64(attempt))%uint64(half+1))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// splitmix is splitmix64 over (seed, n) — one deterministic draw per
// attempt index.
func splitmix(seed, n uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Client is the retrying HTTP client for one service endpoint. Retries
// cover only the admission rejections the server marks retryable (429
// and 503, both carrying Retry-After); real errors surface immediately.
type Client struct {
	// Base is the endpoint root, e.g. "http://127.0.0.1:8080".
	Base string
	// Tenant is sent as X-Tenant on every request (default "default").
	Tenant string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Backoff shapes the retry delays.
	Backoff Backoff
	// MaxAttempts caps tries per operation (default 8).
	MaxAttempts int

	// Retries counts backoff sleeps taken (load-generator statistics);
	// written without atomics, so share a Client across goroutines only
	// if you ignore it.
	Retries int64

	// pool recycles the batch methods' encode/decode buffers, so a
	// client in a produce→consume→ack loop allocates nothing per message
	// on the wire. Lazily initialized; do not copy a Client after use.
	pool sync.Pool
}

// clientBufs is one batch call's worth of reusable buffers.
type clientBufs struct {
	req  []byte
	resp []byte
}

func (c *Client) getBufs() (*clientBufs, func()) {
	b, _ := c.pool.Get().(*clientBufs)
	if b == nil {
		b = new(clientBufs)
	}
	return b, func() { c.pool.Put(b) }
}

// ErrConflict is returned by Ack when the lease expired (the message
// was redelivered) or the token is stale — the service's 409.
var ErrConflict = errors.New("service: ack conflict: lease expired or token stale")

// ErrShed is returned when every attempt was shed (quota, breaker, or
// draining) — the caller's request never entered a queue.
var ErrShed = errors.New("service: request shed after max attempts")

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one request with admission retries. The caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, method, c.Base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if c.Tenant != "" {
			req.Header.Set("X-Tenant", c.Tenant)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
			return resp, nil
		}
		drainClose(resp)
		if attempt+1 >= c.maxAttempts() {
			return nil, fmt.Errorf("%w (last status %d)", ErrShed, resp.StatusCode)
		}
		if err := c.sleep(ctx, attempt, retryAfterOf(resp)); err != nil {
			return nil, err
		}
	}
}

// retryAfterOf reads the server's Retry-After seconds (0 when absent).
func retryAfterOf(resp *http.Response) time.Duration {
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Produce enqueues payload on topic and returns the assigned message id.
func (c *Client) Produce(ctx context.Context, topic string, payload []byte) (uint64, error) {
	resp, err := c.do(ctx, http.MethodPost, "/topics/"+topic+"/produce", payload)
	if err != nil {
		return 0, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return 0, statusError("produce", resp)
	}
	var out struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, fmt.Errorf("produce: decode: %w", err)
	}
	return out.ID, nil
}

// Delivery is one consumed message (the /consume response body); Ack it
// with ID and Token.
type Delivery struct {
	ID      uint64 `json:"id"`
	Token   uint64 `json:"token"`
	Payload []byte `json:"payload"`
}

// Consume leases one message from topic. A nil Delivery with nil error
// means the topic is currently empty.
func (c *Client) Consume(ctx context.Context, topic string) (*Delivery, error) {
	resp, err := c.do(ctx, http.MethodPost, "/topics/"+topic+"/consume", nil)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, nil
	case http.StatusOK:
		var d Delivery
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			return nil, fmt.Errorf("consume: decode: %w", err)
		}
		return &d, nil
	default:
		return nil, statusError("consume", resp)
	}
}

// Ack confirms a delivery. ErrConflict means the lease had already
// expired and the message was (or is being) redelivered — the caller
// must treat its processing as not having counted.
func (c *Client) Ack(ctx context.Context, topic string, id, token uint64) error {
	resp, err := c.do(ctx, http.MethodPost,
		"/topics/"+topic+"/ack?id="+strconv.FormatUint(id, 10)+"&token="+strconv.FormatUint(token, 10), nil)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrConflict
	default:
		return statusError("ack", resp)
	}
}

// postFrame issues one batch request (no retries — the batch methods
// own their retry loops because partial acceptance is not a retryable
// status) and reads the response body into buf. The returned body slice
// is valid until buf's next reuse.
func (c *Client) postFrame(ctx context.Context, path string, reqBody, buf []byte) (status int, retryAfter time.Duration, body []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(reqBody))
	if err != nil {
		return 0, 0, buf, err
	}
	req.Header.Set("Content-Type", batchContentType)
	if c.Tenant != "" {
		req.Header.Set("X-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, 0, buf, err
	}
	body, err = readBody(resp.Body, buf, maxBatchBody)
	resp.Body.Close()
	if err != nil {
		return 0, 0, body, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, retryAfterOf(resp), body, nil
}

// sleep waits out one backoff delay (counting it in Retries) or bails
// on context cancellation.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	c.Retries++
	select {
	case <-time.After(c.Backoff.Delay(attempt, retryAfter)):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 8
}

// ProduceBatch enqueues the payloads in order and returns their ids.
// Batches larger than the protocol's per-frame cap are chunked
// transparently — the server rejects a frame over maxBatchMsgs, so the
// client never sends one — and a fully accepted chunk resets the retry
// budget (it is progress, not a refusal). Partial quota admission is
// retried transparently: the server accepts the chunk's admitted prefix
// and stamps Retry-After for the rest, and the client re-submits the
// suffix after honouring the delay. If attempts run out mid-batch the
// ids accepted so far are returned with the error — those messages ARE
// in the queue.
func (c *Client) ProduceBatch(ctx context.Context, topic string, payloads [][]byte) ([]uint64, error) {
	return postChunks(ctx, c, "produce-batch", "/topics/"+topic+"/produce-batch",
		payloads, make([]uint64, 0, len(payloads)), appendProduceBatch, parseIDs)
}

// postChunks sends items in frames of at most maxBatchMsgs and appends
// each frame's decoded answers to out — one answer per accepted item, in
// order. A frame answered in full resets the retry budget; a partial
// answer, 429 or 503 backs off and re-sends the unanswered suffix.
func postChunks[E, R any](ctx context.Context, c *Client, op, path string, items []E, out []R,
	encode func([]byte, []E) []byte, decode func([]byte, []R) ([]R, error)) ([]R, error) {
	bufs, release := c.getBufs()
	defer release()
	remaining := items
	for attempt := 0; ; attempt++ {
		chunk := remaining[:min(len(remaining), maxBatchMsgs)]
		bufs.req = encode(bufs.req[:0], chunk)
		status, retryAfter, body, err := c.postFrame(ctx, path, bufs.req, bufs.resp)
		bufs.resp = body
		if err != nil {
			return out, fmt.Errorf("%s: %w", op, err)
		}
		switch status {
		case http.StatusOK:
			before := len(out)
			out, err = decode(body, out)
			if err != nil {
				return out, fmt.Errorf("%s: decode: %w", op, err)
			}
			done := len(out) - before
			if done > len(chunk) {
				return out, fmt.Errorf("%s: server answered %d of %d", op, done, len(chunk))
			}
			remaining = remaining[done:]
			if len(remaining) == 0 {
				return out, nil
			}
			if done == len(chunk) {
				attempt = -1 // full chunk answered: next chunk starts fresh
				continue
			}
			// Partial acceptance: not a failure, but the suffix still
			// needs admission — honour Retry-After like a 429 would be.
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// fall through to the shared backoff below
		default:
			return out, fmt.Errorf("%s: unexpected status %d", op, status)
		}
		if attempt+1 >= c.maxAttempts() {
			return out, fmt.Errorf("%w (last status %d, %d of %d answered)",
				ErrShed, status, len(items)-len(remaining), len(items))
		}
		if err := c.sleep(ctx, attempt, retryAfter); err != nil {
			return out, err
		}
	}
}

// ConsumeBatch leases up to max messages. wait > 0 long-polls: the
// server parks the request until a message arrives or wait elapses. An
// empty (or empty-after-wait) topic returns a nil slice and nil error.
// Payloads are copied out of the transport buffer and remain valid
// across the subsequent AckBatch.
func (c *Client) ConsumeBatch(ctx context.Context, topic string, max int, wait time.Duration) ([]Delivery, error) {
	bufs, release := c.getBufs()
	defer release()
	path := "/topics/" + topic + "/consume-batch?max=" + strconv.Itoa(max)
	if wait > 0 {
		path += "&wait=" + wait.String()
	}
	for attempt := 0; ; attempt++ {
		status, retryAfter, body, err := c.postFrame(ctx, path, nil, bufs.resp)
		bufs.resp = body
		if err != nil {
			return nil, fmt.Errorf("consume-batch: %w", err)
		}
		switch status {
		case http.StatusOK:
			ds, err := parseDeliveries(body)
			if err != nil {
				return nil, fmt.Errorf("consume-batch: decode: %w", err)
			}
			return ds, nil
		case http.StatusNoContent:
			return nil, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if attempt+1 >= c.maxAttempts() {
				return nil, fmt.Errorf("%w (last status %d)", ErrShed, status)
			}
			if err := c.sleep(ctx, attempt, retryAfter); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("consume-batch: unexpected status %d", status)
		}
	}
}

// AckBatch acknowledges the entries and returns one AckResult per
// entry, in order. Like ProduceBatch, oversized batches are chunked to
// the per-frame cap (a full chunk resolved resets the retry budget) and
// a partially admitted batch is completed across retries; per-delivery
// conflicts (stale tokens) are reported in the results, not as an error.
func (c *Client) AckBatch(ctx context.Context, topic string, entries []AckEntry) ([]AckResult, error) {
	return postChunks(ctx, c, "ack-batch", "/topics/"+topic+"/ack-batch",
		entries, make([]AckResult, 0, len(entries)), appendAckBatch, parseAckResults)
}

func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func statusError(op string, resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("%s: %s: %s", op, resp.Status, bytes.TrimSpace(msg))
}
