package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// FileConfig is the JSON form of a cluster configuration file used by the
// command-line tools: it names the coordinator replicas, which own every
// view of the groups.
//
//	{"coordinators": ["10.0.0.9:7100", "10.0.0.10:7100", "10.0.0.11:7100"]}
type FileConfig struct {
	Coordinators []string `json:"coordinators"`
}

// LoadConfigFile parses a cluster configuration file.
func LoadConfigFile(path string) (*FileConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read config: %w", err)
	}
	// A field it does not know (such as a group list, which only the
	// coordinators hold) is refused, not ignored.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg FileConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("cluster: parse config %s: %w", path, err)
	}
	return &cfg, nil
}
