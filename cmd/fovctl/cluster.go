// fovctl cluster: the router status pane. Fetches the partition map
// from /cluster/topology and the evaluated cluster health from
// /healthz (both served by fovcluster) and renders one line per
// partition — ownership, endpoints, and what the router can currently
// do with it.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"fovr/internal/cluster"
	"fovr/internal/obs"
)

// runCluster renders the router's topology + health. The generic
// client.Client is built for single-node endpoints, and the cluster
// types would cycle client -> cluster -> client, so this subcommand
// fetches the two JSON documents directly.
func runCluster(serverURL string) error {
	var topo cluster.Topology
	if err := fetchJSON(serverURL+"/cluster/topology", &topo); err != nil {
		return err
	}
	var hr cluster.RouterHealthzResponse
	if err := fetchJSON(serverURL+"/healthz", &hr); err != nil {
		return err
	}

	window := fmt.Sprintf("%dms", topo.WindowMillis)
	if topo.WindowMillis%60000 == 0 {
		window = fmt.Sprintf("%dm", topo.WindowMillis/60000)
	}
	fmt.Printf("cluster: %d partition(s), window %s, state %s (up %.0fs)\n",
		len(topo.Partitions), window, hr.State, hr.UptimeSeconds)

	byComponent := make(map[string]obs.HealthCheck, len(hr.Checks))
	for _, ch := range hr.Checks {
		byComponent[ch.Component] = ch
	}
	for _, p := range topo.Partitions {
		var windows []string
		for _, r := range p.Windows {
			windows = append(windows, fmt.Sprintf("[%d..%d]", r.From, r.To))
		}
		ownership := strings.Join(windows, " ")
		if ownership == "" {
			ownership = "(modulo)"
		}
		state := "?"
		var reasons []string
		if ch, ok := byComponent["partition:"+p.ID]; ok {
			state = string(ch.State)
			reasons = ch.Reasons
		}
		fmt.Printf("  %-6s %-9s windows %s\n", p.ID, state, ownership)
		fmt.Printf("         leader %s", p.Leader)
		if len(p.Replicas) > 0 {
			fmt.Printf("  replicas %s", strings.Join(p.Replicas, " "))
		}
		fmt.Println()
		for _, r := range reasons {
			fmt.Printf("         ! %s\n", r)
		}
	}
	if ch, ok := byComponent["hedging"]; ok {
		fmt.Printf("  hedging %s", ch.State)
		if len(ch.Reasons) > 0 {
			fmt.Printf("  %s", strings.Join(ch.Reasons, "; "))
		}
		fmt.Println()
	}
	return nil
}

// fetchJSON GETs a JSON document, accepting 503 (a failing /healthz
// still carries the report this pane exists to show).
func fetchJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}
