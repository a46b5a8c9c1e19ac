package modules

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mochi/internal/bedrock"
	"mochi/internal/margo"
	"mochi/internal/mercury"
	"mochi/internal/remi"
	"mochi/internal/yokan"
)

func TestRegisterBuiltinsIdempotent(t *testing.T) {
	RegisterBuiltins()
	RegisterBuiltins()
	for _, typ := range []string{"yokan", "warabi", "poesie"} {
		if _, ok := bedrock.LookupModule(typ); !ok {
			t.Fatalf("module %q not registered", typ)
		}
	}
	if _, ok := bedrock.LookupModule("nope"); ok {
		t.Fatal("phantom module")
	}
}

func TestModulesInstantiateAndReport(t *testing.T) {
	RegisterBuiltins()
	f := mercury.NewFabric()
	cls, err := f.NewClass("mods")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()

	cases := []struct {
		typ  string
		cfg  string
		want string // substring of the reported config
	}{
		{"yokan", `{"type":"skiplist"}`, "skiplist"},
		{"warabi", `{"type":"memory"}`, "memory"},
		{"poesie", `{"max_steps": 500}`, "500"},
	}
	for i, c := range cases {
		mod, _ := bedrock.LookupModule(c.typ)
		pi, err := mod.StartProvider(bedrock.ProviderArgs{
			Instance:   inst,
			Name:       c.typ + "-test",
			ProviderID: uint16(10 + i),
			Config:     json.RawMessage(c.cfg),
		})
		if err != nil {
			t.Fatalf("%s: %v", c.typ, err)
		}
		raw, err := pi.Config()
		if err != nil {
			t.Fatalf("%s config: %v", c.typ, err)
		}
		if !json.Valid(raw) {
			t.Fatalf("%s config not JSON: %s", c.typ, raw)
		}
		if want := c.want; want != "" && !containsStr(string(raw), want) {
			t.Fatalf("%s config %s missing %q", c.typ, raw, want)
		}
		if err := pi.Close(); err != nil {
			t.Fatalf("%s close: %v", c.typ, err)
		}
	}
}

func TestModuleBadConfigRejected(t *testing.T) {
	RegisterBuiltins()
	f := mercury.NewFabric()
	cls, _ := f.NewClass("mods-bad")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	for _, typ := range []string{"yokan", "warabi", "poesie"} {
		mod, _ := bedrock.LookupModule(typ)
		if _, err := mod.StartProvider(bedrock.ProviderArgs{
			Instance:   inst,
			Name:       "bad",
			ProviderID: 1,
			Config:     json.RawMessage(`{broken`),
		}); err == nil {
			t.Fatalf("%s accepted broken config", typ)
		}
	}
}

// TestYokanStaleConfigKeysRejected: a yokan database config carrying a
// key the engine does not know (here the two log-engine options that
// no longer exist) is refused at every site that parses one — provider
// start, provider receive after a migration, the xkv "backend" block,
// and a whole bedrock process description — with yokan.ErrBadConfig
// naming the key. Silently ignoring it would run a different engine
// than the config's author asked for.
func TestYokanStaleConfigKeysRejected(t *testing.T) {
	RegisterBuiltins()
	f := mercury.NewFabric()
	cls, _ := f.NewClass("mods-stale")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	logPath := filepath.Join(t.TempDir(), "stale.log")
	args := func(cfg string) bedrock.ProviderArgs {
		return bedrock.ProviderArgs{Instance: inst, Name: "stale", ProviderID: 7, Config: json.RawMessage(cfg)}
	}
	yk, _ := bedrock.LookupModule("yokan")
	xkv, _ := bedrock.LookupModule("xkv")
	cases := []struct {
		site, key string
		start     func() (bedrock.ProviderInstance, error)
	}{
		{"yokan start", "direct_commit", func() (bedrock.ProviderInstance, error) {
			return yk.StartProvider(args(fmt.Sprintf(`{"type":"log","path":%q,"direct_commit":true}`, logPath)))
		}},
		{"yokan start", "batch_window", func() (bedrock.ProviderInstance, error) {
			return yk.StartProvider(args(fmt.Sprintf(`{"type":"log","path":%q,"batch_window":"200us"}`, logPath)))
		}},
		{"yokan receive", "batch_window", func() (bedrock.ProviderInstance, error) {
			fs := &remi.FileSet{Root: t.TempDir(), Files: []remi.FileInfo{{RelPath: "stale.log"}}}
			return yk.(bedrock.MigrationReceiver).ReceiveProvider(args(`{"type":"log","batch_window":"200us"}`), fs)
		}},
		{"xkv backend", "direct_commit", func() (bedrock.ProviderInstance, error) {
			return xkv.StartProvider(args(`{"backend":{"type":"map","direct_commit":true}}`))
		}},
		{"bedrock process", "batch_window", func() (bedrock.ProviderInstance, error) {
			cls, _ := f.NewClass("mods-stale-proc")
			srv, err := bedrock.NewServer(cls, []byte(fmt.Sprintf(`{
  "libraries": {"yokan": "libyokan.so"},
  "providers": [{"name": "db", "type": "yokan", "provider_id": 1,
                 "config": {"type": "log", "path": %q, "batch_window": "200us"}}]}`, logPath)))
			if err == nil {
				srv.Shutdown()
			}
			return nil, err
		}},
	}
	for _, c := range cases {
		pi, err := c.start()
		if err == nil {
			if pi != nil {
				pi.Close()
			}
			t.Fatalf("%s: config with stale key %q accepted", c.site, c.key)
		}
		// bedrock's dependency resolver reports provider errors as
		// text, so the process case can only be matched by message.
		isBad := errors.Is(err, yokan.ErrBadConfig) ||
			(c.site == "bedrock process" && containsStr(err.Error(), yokan.ErrBadConfig.Error()))
		if !isBad || !containsStr(err.Error(), `"`+c.key+`"`) {
			t.Fatalf("%s: got %v, want yokan.ErrBadConfig naming %q", c.site, err, c.key)
		}
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("a rejected config still opened the log (%v)", err)
	}
}

// TestXkvUnknownConfigKeyRejected: an xkv provider config carrying a key
// the module does not know — an option that was removed, or a typo — is
// refused at start with an error naming the key, never ignored.
func TestXkvUnknownConfigKeyRejected(t *testing.T) {
	RegisterBuiltins()
	f := mercury.NewFabric()
	cls, _ := f.NewClass("mods-xkv-unknown")
	inst, err := margo.New(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Finalize()
	xkv, _ := bedrock.LookupModule("xkv")
	for key, cfg := range map[string]string{
		"stage_timeout_ms": `{"stage_timeout_ms":2000}`,
		"remi_provider":    `{"remi_provider":3}`,
	} {
		pi, err := xkv.StartProvider(bedrock.ProviderArgs{Instance: inst, Name: "xkv", ProviderID: 9, Config: json.RawMessage(cfg)})
		if err == nil {
			pi.Close()
			t.Fatalf("config with unknown key %q accepted", key)
		}
		if !containsStr(err.Error(), `"`+key+`"`) {
			t.Fatalf("unknown key %q: error %v does not name it", key, err)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
