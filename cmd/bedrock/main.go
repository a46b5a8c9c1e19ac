// Command bedrock starts one service process from a JSON
// configuration (paper Listing 3) and serves it over TCP until it is
// shut down remotely (bedrock_shutdown) or killed. It is the
// multi-OS-process deployment path; the in-process "sm" fabric used
// by tests and benchmarks exercises the same code.
//
// Usage:
//
//	bedrock -config service.json [-listen 127.0.0.1:0]
//
// The process prints its address on stdout so launch scripts can wire
// clients to it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mochi/internal/bedrock"
	"mochi/internal/mercury"
	"mochi/internal/modules"
)

// paramFlags collects repeated -param key=value flags for Jx9
// configuration scripts ($__params__).
type paramFlags map[string]any

func (p paramFlags) String() string { return fmt.Sprint(map[string]any(p)) }

func (p paramFlags) Set(kv string) error {
	k, v, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("want key=value, got %q", kv)
	}
	// Numbers and booleans are passed typed; everything else as string.
	var parsed any
	if err := json.Unmarshal([]byte(v), &parsed); err == nil {
		p[k] = parsed
	} else {
		p[k] = v
	}
	return nil
}

func main() {
	configPath := flag.String("config", "", "path to the process configuration (Listing-3 JSON, or a Jx9 script returning it)")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	params := paramFlags{}
	flag.Var(params, "param", "key=value parameter for Jx9 configuration scripts (repeatable)")
	flag.Parse()

	modules.RegisterBuiltins()

	var raw []byte
	if *configPath != "" {
		var err error
		raw, err = os.ReadFile(*configPath)
		if err != nil {
			log.Fatalf("bedrock: reading config: %v", err)
		}
	}
	// Resolve the (possibly Jx9) config up front: the transport knobs
	// live in the margo section and must be known before the TCP class
	// is created. The resolved JSON is handed to the server.
	cfg, err := bedrock.ParseConfigParams(raw, params)
	if err != nil {
		log.Fatalf("bedrock: %v", err)
	}
	raw, err = json.Marshal(cfg)
	if err != nil {
		log.Fatalf("bedrock: %v", err)
	}
	var topts mercury.TCPOptions
	if t := cfg.Margo.Transport; t != nil {
		topts.PoolSize = t.PoolSize
	}
	class, err := mercury.NewTCPClassOptions(*listen, topts)
	if err != nil {
		log.Fatalf("bedrock: %v", err)
	}
	server, err := bedrock.NewServer(class, raw)
	if err != nil {
		log.Fatalf("bedrock: %v", err)
	}
	fmt.Println(server.Addr())
	log.Printf("bedrock: serving at %s (providers: %v)", server.Addr(), server.Providers())
	<-server.Done()
	log.Printf("bedrock: shut down")
}
