package bedrock

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mochi/internal/margo"
	"mochi/internal/mercury"
)

// The control plane's two adapters against each other: arguments and
// data round-trip, an RPC without arguments decodes the zero value, a
// handler's error and malformed input both come back as the reply's
// error — and malformed input never reaches the handler.
func TestServeJSONCallJSON(t *testing.T) {
	f := mercury.NewFabric()
	var insts [2]*margo.Instance
	for i, name := range []string{"json-srv", "json-cli"} {
		cls, err := f.NewClass(name)
		if err != nil {
			t.Fatal(err)
		}
		if insts[i], err = margo.New(cls, nil); err != nil {
			t.Fatal(err)
		}
		defer insts[i].Finalize()
	}
	srv, cli := insts[0], insts[1]
	calls := 0
	_, err := srv.RegisterSet(mercury.AnyProvider, nil, margo.RPC{Name: "greet", Handler: serveJSON(
		func(_ context.Context, a *nameArgs) (any, error) {
			calls++
			if a.Name == "nobody" {
				return nil, errors.New("no such person")
			}
			return map[string]string{"greeting": "hello " + a.Name}, nil
		})})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	out, raw, err := callJSON[map[string]string](ctx, cli, srv.Addr(), "greet", nameArgs{Name: "ada"})
	if err != nil || out["greeting"] != "hello ada" || string(raw) != `{"greeting":"hello ada"}` {
		t.Fatalf("round trip: %v, %q, %v", out, raw, err)
	}
	if out, _, err := callJSON[map[string]string](ctx, cli, srv.Addr(), "greet", nil); err != nil || out["greeting"] != "hello " {
		t.Fatalf("no arguments: %v, %v", out, err)
	}
	if _, _, err := callJSON[map[string]string](ctx, cli, srv.Addr(), "greet", nameArgs{Name: "nobody"}); err == nil || !strings.Contains(err.Error(), "no such person") {
		t.Fatalf("handler error: %v", err)
	}
	before := calls
	for _, bad := range []any{"a string, not an object", []int{1}, map[string]int{"name": 7}} {
		if _, _, err := callJSON[map[string]string](ctx, cli, srv.Addr(), "greet", bad); err == nil {
			t.Fatalf("malformed arguments %v were accepted", bad)
		}
	}
	if calls != before {
		t.Fatalf("malformed input reached the handler %d times", calls-before)
	}
}
